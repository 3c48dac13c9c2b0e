"""Property-based tests (hypothesis) for the segment store.

Five properties carry the store's correctness story:

1. **Round trip** — after an arbitrary interleaving of appends across
   devices, buckets and epsilons, every query returns exactly what a
   naive in-memory reference (a list plus the same row predicate, in the
   same canonical order) says it should.
2. **Pruning soundness** — for every randomly generated workload and
   query, the zone-map-pruned result is byte-identical (via the JSON
   views the CLI serialises) to the forced full scan.  Together with the
   round-trip property this pins data skipping to "faster, never
   different".
3. **Crash recovery** — truncating or corrupting a device log at an
   arbitrary byte offset, then reopening, recovers exactly the committed
   chunk prefix; no crash point leaves a partition unreadable.
4. **Compaction identity** — compacting any store leaves every query's
   results byte-identical, before and after a reopen.
5. **Pushdown equivalence** — zone-map-served window aggregates equal the
   row-scan path for arbitrary specs and window grids (``total_length``
   up to float summation order).
"""

from __future__ import annotations

import json
import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import Point, SegmentRecord
from repro.store import QuerySpec, open_store
from repro.store.layout import DEVICES_DIR, device_log_name, encode_chunk

COMMON_SETTINGS = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

DEVICES = ("cab-1", "cab-2", "van/3")

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, width=64)
times = st.floats(min_value=-500.0, max_value=2500.0, allow_nan=False, width=64)


@st.composite
def segment_records(draw):
    t0 = draw(times)
    return SegmentRecord(
        start=Point(draw(coords), draw(coords), t0),
        end=Point(draw(coords), draw(coords), t0 + draw(st.floats(0.0, 300.0))),
        first_index=0,
        last_index=1,
        point_count=2,
        covered_last_index=1,
    )


@st.composite
def append_batches(draw):
    """An interleaving of appends: (device, epsilon, [segments])."""
    n_batches = draw(st.integers(min_value=1, max_value=6))
    batches = []
    for _ in range(n_batches):
        device = draw(st.sampled_from(DEVICES))
        epsilon = draw(st.sampled_from((5.0, 20.0)))
        records = draw(st.lists(segment_records(), min_size=0, max_size=5))
        batches.append((device, epsilon, records))
    return batches


@st.composite
def query_specs(draw):
    device = draw(st.none() | st.sampled_from(DEVICES))
    window = None
    if draw(st.booleans()):
        t0 = draw(times)
        window = (t0, t0 + draw(st.floats(0.0, 1000.0)))
    bbox = None
    if draw(st.booleans()):
        x0, y0 = draw(coords), draw(coords)
        bbox = (x0, y0, x0 + draw(st.floats(0.0, 5000.0)), y0 + draw(st.floats(0.0, 5000.0)))
    epsilon = draw(st.none() | st.sampled_from((5.0, 20.0)))
    return QuerySpec(device=device, window=window, bbox=bbox, epsilon=epsilon)


def reference_rows(batches):
    """The in-memory model: canonical scan order is (device, bucket,
    append order); with time_bucket=100.0 buckets follow start.t."""
    rows = []  # (device, bucket, arrival, epsilon, record)
    for arrival, (device, epsilon, records) in enumerate(batches):
        for record in records:
            bucket = int(record.start.t // 100.0)
            rows.append((device, bucket, arrival, epsilon, record))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def reference_logs(batches):
    """Per-device chunk model mirroring ``Store.append``'s grouping:
    ``device -> [(chunk_byte_length, bucket, [(record, epsilon), ...])]``
    in log order — the byte layout of every device log."""
    logs = {}
    for device, epsilon, records in batches:
        grouped = {}
        for record in records:
            grouped.setdefault(int(record.start.t // 100.0), []).append(record)
        for bucket in sorted(grouped):
            chunk = grouped[bucket]
            encoded, _ = encode_chunk(chunk, epsilon, bucket)
            logs.setdefault(device, []).append(
                (len(encoded), bucket, [(record, epsilon) for record in chunk])
            )
    return logs


def expected_query_dicts(logs):
    """The full-store query result implied by the log model: canonical
    order is (device, bucket, log order)."""
    expected = []
    for device in sorted(logs):
        by_bucket = {}
        for _, bucket, rows in logs[device]:
            by_bucket.setdefault(bucket, []).extend(rows)
        for bucket in sorted(by_bucket):
            expected.extend(
                {"device": device, "epsilon": epsilon, "segment": record.to_dict()}
                for record, epsilon in by_bucket[bucket]
            )
    return expected


class TestStoreProperties:
    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches(), spec=query_specs())
    def test_query_matches_in_memory_reference(self, tmp_path_factory, batches, spec):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)

        expected = [
            {"device": device, "epsilon": epsilon, "segment": record.to_dict()}
            for device, _bucket, _arrival, epsilon, record in reference_rows(batches)
            if spec.matches(device, epsilon, record)
        ]
        result = store.query(spec)
        assert [stored.to_dict() for stored in result.segments] == expected
        assert result.partitions_scanned <= result.partitions_total

    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches(), spec=query_specs())
    def test_pruned_scan_is_byte_identical_to_full_scan(
        self, tmp_path_factory, batches, spec
    ):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)

        pruned = store.query(spec)
        full = store.query(spec, full_scan=True)
        assert full.partitions_scanned == full.partitions_total
        assert pruned.partitions_scanned <= full.partitions_scanned
        assert json.dumps([s.to_dict() for s in pruned.segments]) == json.dumps(
            [s.to_dict() for s in full.segments]
        )

    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches())
    def test_reopen_preserves_query_results(self, tmp_path_factory, batches):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)
        before = [s.to_dict() for s in store.query().segments]

        reopened = open_store(root / "segments")
        assert [s.to_dict() for s in reopened.query().segments] == before
        assert reopened.n_segments == store.n_segments
        # Both sides fold the chunk zone maps in log order, so the zone
        # maps rebuilt from the headers equal the writer's bit for bit.
        assert reopened.partitions() == store.partitions()

    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches(), data=st.data())
    def test_crash_at_arbitrary_offset_recovers_committed_prefix(
        self, tmp_path_factory, batches, data
    ):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)
        store.close()
        logs = reference_logs(batches)
        assume(logs)

        target = data.draw(st.sampled_from(sorted(logs)), label="device")
        chunks = logs[target]
        total_bytes = sum(length for length, _, _ in chunks)
        path = root / "segments" / DEVICES_DIR / device_log_name(target)
        if data.draw(st.booleans(), label="truncate"):
            # Crash mid-append: the log ends at an arbitrary byte offset.
            offset = data.draw(
                st.integers(min_value=0, max_value=total_bytes - 1), label="offset"
            )
            with open(path, "r+b") as handle:
                handle.truncate(offset)
            committed = []
            boundary = 0
            boundaries = {0}
            for chunk in chunks:
                if boundary + chunk[0] <= offset:
                    committed.append(chunk)
                boundary += chunk[0]
                boundaries.add(boundary)
            expect_damage = offset not in boundaries
        else:
            # Crash mid-append of a *new* chunk: a torn tail of junk bytes
            # (never a valid header — it starts with a NUL) after every
            # committed chunk.
            garbage = b"\x00" + data.draw(
                st.binary(min_size=0, max_size=40), label="garbage"
            )
            with open(path, "ab") as handle:
                handle.write(garbage)
            committed = chunks
            expect_damage = True

        reopened = open_store(root / "segments")
        assert reopened.recovery.damaged == (1 if expect_damage else 0)
        expected = expected_query_dicts({**logs, target: committed})
        assert [s.to_dict() for s in reopened.query().segments] == expected
        assert reopened.n_segments == len(expected)
        # The repair was physical: on disk only the committed prefix remains,
        # so the next open is clean.
        clean = open_store(root / "segments")
        assert clean.recovery.damaged == 0
        assert [s.to_dict() for s in clean.query().segments] == expected

    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches(), spec=query_specs())
    def test_compaction_preserves_query_results_byte_for_byte(
        self, tmp_path_factory, batches, spec
    ):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)
        before = json.dumps([s.to_dict() for s in store.query(spec).segments])
        segments_before = store.n_segments

        report = store.compact(min_chunks=1)
        assert all(item.chunks_after <= 1 for item in report.compacted)
        assert store.n_segments == segments_before
        assert json.dumps([s.to_dict() for s in store.query(spec).segments]) == before
        store.close()

        reopened = open_store(root / "segments")
        assert reopened.recovery.damaged == 0
        assert (
            json.dumps([s.to_dict() for s in reopened.query(spec).segments]) == before
        )

    @settings(**COMMON_SETTINGS)
    @given(
        batches=append_batches(),
        spec=query_specs(),
        width=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        step=st.none() | st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    )
    def test_aggregate_pushdown_equals_row_scan(
        self, tmp_path_factory, batches, spec, width, step
    ):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)

        pushed = store.window_aggregates(spec, width=width, step=step)
        scanned = store.window_aggregates(spec, width=width, step=step, pushdown=False)
        assert scanned.partitions_pushdown == 0
        assert len(pushed.windows) == len(scanned.windows)
        for via_sidecar, via_rows in zip(pushed.windows, scanned.windows):
            assert via_sidecar.t_start == via_rows.t_start
            assert via_sidecar.t_end == via_rows.t_end
            assert via_sidecar.segments == via_rows.segments
            assert via_sidecar.points == via_rows.points
            assert via_sidecar.devices == via_rows.devices
            assert via_sidecar.device_ids == via_rows.device_ids
            assert math.isclose(
                via_sidecar.total_length,
                via_rows.total_length,
                rel_tol=1e-9,
                abs_tol=1e-6,
            )
