"""Store file-count guard: one data file per device, whatever the partitions.

The segment store keeps one self-describing log per device, with each
partition's zone map in its chunk headers, so ingesting a fleet creates
one data file per device plus ``MANIFEST.json`` — however many
``(device, hour)`` partitions the traffic spreads over.  File creation is
the dominant cost of a store append, so a layout that creates files per
partition again fails this guard.

This is a deterministic count, not a timing, so it runs on any host::

    PYTHONPATH=src python -m pytest benchmarks/bench_store_append.py -q
"""

from __future__ import annotations

from repro.perf import build_device_log
from repro.store import open_store
from repro.store.layout import MANIFEST_NAME
from repro.streaming import StreamHub

DEVICES = 128
POINTS = 1_000
EPSILON = 40.0


def test_taxi_ingest_leaves_one_file_per_device(tmp_path):
    log = build_device_log("taxi", DEVICES, POINTS, seed=7)
    root = tmp_path / "store"
    store = open_store(root)
    with StreamHub(
        algorithm="operb",
        epsilon=EPSILON,
        shards=8,
        sink_factory=store.sink_factory(epsilon=EPSILON),
    ) as hub:
        hub.push_many(log)
        hub.finish_all()
        stats = hub.stats()
    store.close()

    files = sorted(
        path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()
    )
    devices = sorted({device_id for device_id, _ in log})
    assert len(devices) == DEVICES
    assert files.count(MANIFEST_NAME) == 1
    assert len(files) == DEVICES + 1, f"{len(files)} files for {DEVICES} devices"

    reopened = open_store(root, create=False)
    assert reopened.devices() == devices
    assert reopened.n_segments == stats.segments_emitted
    # The traffic spreads over many hourly partitions per device; the
    # file count above does not grow with them.
    assert reopened.n_partitions > 4 * DEVICES
