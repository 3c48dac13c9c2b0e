"""The performance harness: run a declared suite, emit ``BENCH_results.json``.

The harness drives every measurement through the PR-1 unified API
(:class:`repro.api.Simplifier`), so what is timed is exactly what users and
the experiment layer execute.  Per ``(case, algorithm)`` pair it records the
best wall time over ``suite.repeats`` runs, the derived throughput in
points per second, and the compression ratio of the produced
representations; the report carries machine and commit metadata so two JSON
files can be compared meaningfully by :mod:`repro.perf.compare`.

Cross-machine comparability: absolute throughput is machine-bound, so the
report also stores a *calibration* throughput — a fixed scalar-Python
geometry workload timed on the same host.  ``compare`` rescales baselines by
the ratio of the two calibrations, which removes most of the machine
difference and lets CI gate against a committed baseline with a modest
threshold.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .._version import __version__
from ..api.session import Simplifier
from ..core.config import get_kernel_backend
from ..geometry.kernels import ped_point_to_chord
from ..geometry.point import Point
from ..metrics.compression import fleet_compression_ratio
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import PiecewiseRepresentation
from ..api.descriptors import get_descriptor
from .workloads import PerfCase, PerfSuite, build_fleet, get_suite, interleave_fleet

__all__ = [
    "Measurement",
    "PerfReport",
    "calibration_points_per_second",
    "machine_metadata",
    "run_suite",
    "load_report",
    "write_report",
]

REPORT_FORMAT = 1
"""Version stamp of the JSON layout, bumped on incompatible changes."""

_CALIBRATION_POINTS = 20_000


@dataclass(frozen=True, slots=True)
class Measurement:
    """One timed ``(case, algorithm)`` cell of a suite run."""

    case: str
    algorithm: str
    epsilon: float
    points: int
    trajectories: int
    repeats: int
    wall_seconds: float
    points_per_second: float
    segments: int
    compression_ratio: float
    mode: str = "batch"
    """Execution mode of the case: per-trajectory ``batch``, multi-device
    ``hub`` ingest, or ``fleet`` executor fan-out (defaulted so pre-hub
    reports keep loading)."""
    backend: str = "serial"
    """Execution backend the cell ran on (``serial``/``thread``/``process``;
    defaulted so pre-backend reports keep loading)."""
    workers: int = 1
    """Worker count of the execution backend."""
    block_size: int = 512
    """Hub ingest block size the cell ran with (``hub`` mode; defaulted so
    pre-block reports keep loading)."""
    scan_fraction: float = 1.0
    """Fraction of store partitions the query phase actually read
    (``store`` mode; zone-map pruning effectiveness).  1.0 — read
    everything — for the other modes and for pre-store reports."""
    levels: int = 1
    """Depth of the served epsilon ladder (``pyramid`` mode; 1 for the
    other modes and for pre-pyramid reports)."""
    level_compression: list[float] | None = None
    """Per-level compression ratio (segments at that level over input
    points), finest first (``pyramid`` mode; None — defaulted so
    pre-pyramid reports keep loading — for the other modes)."""
    bytes_shipped: int = 0
    """Wire-frame bytes the hub shipped to its shard workers during the
    best repeat (``hub`` mode on the process/node backends; 0 elsewhere and
    for pre-wire reports)."""
    frames_per_second: float = 0.0
    """Wire frames the shard workers decoded per wall-clock second during
    the best repeat (``hub`` mode on the process/node backends; 0.0
    elsewhere and for pre-wire reports)."""

    @property
    def key(self) -> str:
        """Stable identity used when diffing two reports.

        Concurrent-backend cells carry their backend in the key, so a run
        overridden with ``--backend``/``--workers`` is never silently gated
        against a baseline measured on a different backend — mismatched
        cells show up as added/missing instead of bogus regressions.
        Serial cells keep the historical ``case:algorithm`` form, so old
        baselines stay comparable.
        """
        if self.backend == "serial" and self.workers == 1:
            return f"{self.case}:{self.algorithm}"
        return f"{self.case}:{self.algorithm}@{self.backend}x{self.workers}"

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for JSON serialisation."""
        return asdict(self)


@dataclass(slots=True)
class PerfReport:
    """A full suite run: measurements plus machine/commit metadata."""

    suite: str
    results: list[Measurement] = field(default_factory=list)
    meta: dict[str, object] = field(default_factory=dict)

    def by_key(self) -> dict[str, Measurement]:
        """Mapping ``"case:algorithm" -> measurement``."""
        return {measurement.key: measurement for measurement in self.results}

    def algorithms(self) -> list[str]:
        """Sorted distinct algorithm names present in the results."""
        return sorted({measurement.algorithm for measurement in self.results})

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for JSON serialisation."""
        return {
            "format": REPORT_FORMAT,
            "suite": self.suite,
            "meta": self.meta,
            "results": [measurement.as_dict() for measurement in self.results],
        }

    def to_json(self) -> str:
        """Serialise the report (stable key order, human-diffable)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "PerfReport":
        """Rebuild a report from :meth:`as_dict` output."""
        results = [Measurement(**entry) for entry in payload.get("results", [])]
        return cls(
            suite=str(payload.get("suite", "")),
            results=results,
            meta=dict(payload.get("meta", {})),
        )

    def to_text(self) -> str:
        """Fixed-width summary table of the measurements."""
        header = (
            f"{'case':<16} {'algorithm':<10} {'backend':<10} {'points':>8} "
            f"{'wall s':>9} {'points/s':>12} {'ratio':>7}"
        )
        lines = [header, "-" * len(header)]
        for measurement in self.results:
            backend = f"{measurement.backend}x{measurement.workers}"
            lines.append(
                f"{measurement.case:<16} {measurement.algorithm:<10} "
                f"{backend:<10} "
                f"{measurement.points:>8} {measurement.wall_seconds:>9.4f} "
                f"{measurement.points_per_second:>12.0f} "
                f"{measurement.compression_ratio:>7.4f}"
            )
        return "\n".join(lines)


def calibration_points_per_second(n_points: int = _CALIBRATION_POINTS) -> float:
    """Throughput of a fixed scalar-Python PED workload on this host.

    The workload (a per-point loop over the scalar chord kernel) is
    deliberately backend-independent and allocation-free, so its throughput
    tracks the host's single-core Python speed — the quantity the real
    measurements are bound by.  Used to normalise throughputs across
    machines in ``compare``.
    """
    xs = np.linspace(0.0, 1000.0, n_points)
    ys = np.sin(xs * 0.01) * 100.0
    started = time.perf_counter()
    acc = 0.0
    for i in range(n_points):
        acc += ped_point_to_chord(float(xs[i]), float(ys[i]), 0.0, 0.0, 1000.0, 10.0)
    elapsed = time.perf_counter() - started
    if not math.isfinite(acc):  # pragma: no cover - numerical guard only
        raise ArithmeticError("calibration workload produced non-finite output")
    return n_points / elapsed if elapsed > 0.0 else float("inf")


def _git_commit() -> str | None:
    """Best-effort commit hash of the working tree (None outside git)."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if output.returncode != 0:
        return None
    return output.stdout.strip() or None


def machine_metadata(*, calibrate: bool = True) -> dict[str, object]:
    """Machine, toolchain and commit metadata stamped into every report."""
    meta: dict[str, object] = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_version": __version__,
        "cpu_count": os.cpu_count(),
        "kernel_backend": get_kernel_backend(),
        "commit": _git_commit(),
        "created_unix": time.time(),
    }
    if calibrate:
        meta["calibration_pps"] = calibration_points_per_second()
    return meta


def _time_fleet(
    session: Simplifier, fleet: Sequence[Trajectory], repeats: int
) -> tuple[float, list[PiecewiseRepresentation]]:
    """Best wall time over ``repeats`` runs and the last run's outputs."""
    best = math.inf
    representations: list[PiecewiseRepresentation] = []
    for _ in range(max(1, repeats)):
        representations = []
        started = time.perf_counter()
        for trajectory in fleet:
            representations.append(session.run(trajectory))
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best, representations


_HUB_SHARDS = 8
"""Shard count the hub-mode measurements run with."""


def _time_hub(
    algorithm: str,
    case: PerfCase,
    records: Sequence[tuple[str, Point]],
    repeats: int,
) -> tuple[float, int, str, int, int, float]:
    """Best wall time over ``repeats`` hub replays, the segment count, the
    backend/worker-count the hub *actually* ran with, and the transport
    counters of the best repeat (bytes shipped, frames decoded per second).

    Each repeat drives a fresh :class:`repro.streaming.StreamHub` on the
    case's execution backend (devices pre-registered, so registration cost
    is not part of the measurement) over the full interleaved log, then
    flushes every stream — ``finish_all`` synchronises the shard workers,
    so concurrent backends are timed to full drain.
    """
    from ..streaming.hub import StreamHub

    device_ids = sorted({device_id for device_id, _ in records})
    best = math.inf
    segments = 0
    backend = case.backend
    workers = case.workers
    bytes_shipped = 0
    frames_per_second = 0.0
    for _ in range(max(1, repeats)):
        hub = StreamHub(
            algorithm=algorithm,
            epsilon=case.epsilon,
            shards=_HUB_SHARDS,
            on_error="raise",
            backend=case.backend,
            workers=case.workers,
            block_size=case.block_size,
        )
        try:
            backend, workers = hub.backend, hub.n_workers
            for device_id in device_ids:
                hub.register_device(device_id)
            started = time.perf_counter()
            hub.push_many(records)
            hub.finish_all()
            elapsed = time.perf_counter() - started
            stats = hub.stats()
            segments = stats.segments_emitted
            if elapsed < best:
                best = elapsed
                bytes_shipped = stats.bytes_shipped
                frames_per_second = (
                    stats.frames_decoded / elapsed if elapsed > 0.0 else 0.0
                )
        finally:
            hub.close()
    return best, segments, backend, workers, bytes_shipped, frames_per_second


def _time_pyramid(
    algorithm: str,
    case: PerfCase,
    records: Sequence[tuple[str, Point]],
    repeats: int,
) -> tuple[float, int, list[int], str, int]:
    """Best wall time over ``repeats`` pyramid replays.

    Identical to :func:`_time_hub` except the hub serves the case's whole
    epsilon ladder (``epsilon * 2**i`` per level) in the same pass; the
    returned per-level segment counts (finest first) feed the report's
    ``level_compression`` column.  ``levels=1`` measures the degenerate
    single-resolution pyramid — the reference cell the k>1 cells are
    compared against.
    """
    from ..streaming.hub import StreamHub

    ladder = tuple(case.epsilon * (2.0**level) for level in range(case.levels))
    device_ids = sorted({device_id for device_id, _ in records})
    best = math.inf
    by_level: list[int] = []
    backend = case.backend
    workers = case.workers
    for _ in range(max(1, repeats)):
        hub = StreamHub(
            algorithm=algorithm,
            epsilons=ladder,
            shards=_HUB_SHARDS,
            on_error="raise",
            backend=case.backend,
            workers=case.workers,
            block_size=case.block_size,
        )
        try:
            backend, workers = hub.backend, hub.n_workers
            for device_id in device_ids:
                hub.register_device(device_id)
            started = time.perf_counter()
            hub.push_many(records)
            hub.finish_all()
            elapsed = time.perf_counter() - started
            best = min(best, elapsed)
            stats = hub.stats()
            by_level = (
                stats.segments_by_level
                if stats.segments_by_level is not None
                else [stats.segments_emitted]
            )
        finally:
            hub.close()
    return best, by_level[0], by_level, backend, workers


def _time_fleet_executor(
    algorithm: str,
    case: PerfCase,
    fleet: Sequence[Trajectory],
    repeats: int,
) -> tuple[float, list[PiecewiseRepresentation], str, int]:
    """Best wall time over ``repeats`` ``run_many`` fan-outs, plus the
    backend/worker-count the executor *actually* used."""
    session = Simplifier(algorithm, case.epsilon)
    best = math.inf
    representations: list[PiecewiseRepresentation] = []
    backend = case.backend
    workers = case.workers
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = session.run_many(
            fleet,
            workers=case.workers,
            backend=case.backend,
            on_error="raise",
        )
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        representations = result.successful()
        backend, workers = result.backend, result.workers
    return best, representations, backend, workers


_STORE_QUERY_SPAN = 0.25
"""Width of the per-device query window, as a fraction of the fleet's time
range (centred), in the store-mode measurements."""

_STORE_BUCKETS = 8
"""Time buckets the fleet's time range is partitioned into per device."""

_STORE_COMPACT_BATCH = 16
"""Segments per append batch in ``store_op="compact"`` cases — small on
purpose, so every partition accumulates many chunks for compaction to
merge."""


def _time_store(
    algorithm: str,
    case: PerfCase,
    fleet: Sequence[Trajectory],
    repeats: int,
) -> tuple[float, int, float, float]:
    """Best wall time over ``repeats`` store rounds for one store case.

    The fleet is simplified once, untimed — store cases measure the store,
    not the simplifier.  What each timed round does depends on the case's
    ``store_op``:

    ``query``
        Build a fresh store, append every device's segments (zone maps
        maintained at write time) and run one device/time-window query per
        device over the centre of the fleet's time range.
    ``compact``
        Build the store from many small append batches (so every partition
        holds many chunks), compact it to single-chunk form, then run the
        same per-device queries against the compacted store.
    ``aggregate``
        Build the store untimed, then time window aggregates whose windows
        fully cover every partition's time range — the rounds the store
        answers from the zone maps alone, so the reported scan
        fraction must be 0.

    Returns ``(wall, stored segments, compression ratio, scan fraction)``
    where the scan fraction is partitions-read over partitions-considered
    across the read phase — the pruning/pushdown-effectiveness number the
    suite gates on.
    """
    import tempfile

    from ..store import open_store

    session = Simplifier(algorithm, case.epsilon)
    representations = [session.run(trajectory) for trajectory in fleet]
    device_ids = [f"dev-{i:04d}" for i in range(len(representations))]
    spans = [
        (record.start.t, record.end.t)
        for representation in representations
        for record in representation.segments
    ]
    t_min = min(min(span) for span in spans)
    t_max = max(max(span) for span in spans)
    span = t_max - t_min
    time_bucket = span / _STORE_BUCKETS if span > 0.0 else 1.0
    q_low = t_min + span * (0.5 - _STORE_QUERY_SPAN / 2.0)
    q_high = t_min + span * (0.5 + _STORE_QUERY_SPAN / 2.0)
    # The covering aggregate window extends one unit past both ends so the
    # grid's trailing window (starting exactly at the range's upper edge)
    # intersects no partition and nothing gets demoted to a scan.
    a_low = t_min - 1.0
    a_high = t_max + 1.0
    a_width = a_high - a_low
    best = math.inf
    stored = 0
    scan_fraction = 1.0
    for _ in range(max(1, repeats)):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "segments"
            scanned = considered = 0
            if case.store_op == "aggregate":
                store = open_store(root, time_bucket=time_bucket)
                for device_id, representation in zip(device_ids, representations):
                    store.append(
                        device_id, representation.segments, epsilon=case.epsilon
                    )
                stored = store.n_segments
                started = time.perf_counter()
                outcome = store.window_aggregates(
                    width=a_width, window=(a_low, a_high)
                )
                scanned += outcome.partitions_scanned
                considered += outcome.partitions_total
                for device_id in device_ids:
                    outcome = store.window_aggregates(
                        width=a_width, device=device_id, window=(a_low, a_high)
                    )
                    scanned += outcome.partitions_scanned
                    considered += outcome.partitions_total
                elapsed = time.perf_counter() - started
            elif case.store_op == "compact":
                started = time.perf_counter()
                store = open_store(root, time_bucket=time_bucket)
                for device_id, representation in zip(device_ids, representations):
                    segments = representation.segments
                    for low in range(0, len(segments), _STORE_COMPACT_BATCH):
                        store.append(
                            device_id,
                            segments[low : low + _STORE_COMPACT_BATCH],
                            epsilon=case.epsilon,
                        )
                store.compact()
                stored = store.n_segments
                for device_id in device_ids:
                    result = store.query(device=device_id, window=(q_low, q_high))
                    scanned += result.partitions_scanned
                    considered += result.partitions_total
                elapsed = time.perf_counter() - started
            else:
                started = time.perf_counter()
                store = open_store(root, time_bucket=time_bucket)
                for device_id, representation in zip(device_ids, representations):
                    store.append(
                        device_id, representation.segments, epsilon=case.epsilon
                    )
                stored = store.n_segments
                for device_id in device_ids:
                    result = store.query(device=device_id, window=(q_low, q_high))
                    scanned += result.partitions_scanned
                    considered += result.partitions_total
                elapsed = time.perf_counter() - started
            store.close()
        best = min(best, elapsed)
        scan_fraction = scanned / considered if considered else 1.0
    ratio = fleet_compression_ratio(representations)
    return best, stored, ratio, scan_fraction


def run_suite(
    suite: PerfSuite | str,
    *,
    repeats: int | None = None,
    progress: Callable[[str], None] | None = None,
    backend: str | None = None,
    workers: int | None = None,
    block_size: int | None = None,
) -> PerfReport:
    """Run a declared suite and return the populated report.

    Parameters
    ----------
    suite:
        A :class:`~repro.perf.workloads.PerfSuite` or the name of a declared
        one (``smoke``, ``quick``, ``hub``, ``fleet``, ``blocks``,
        ``pyramid``, ``full``).
    repeats:
        Override the suite's timing repeats (best-of semantics).
    progress:
        Optional sink for one-line progress messages (e.g. ``print``).
    backend, workers:
        Override the execution backend / worker count of every ``hub``,
        ``fleet`` and ``pyramid`` case (``batch`` cases always run inline).
        Handy for ad-hoc scaling experiments; declared suites stay the
        reproducible record.
    block_size:
        Override the hub ingest block size of every ``hub``/``pyramid``
        case.
    """
    if isinstance(suite, str):
        suite = get_suite(suite)
    effective_repeats = suite.repeats if repeats is None else max(1, repeats)
    report = PerfReport(suite=suite.name, meta=machine_metadata())
    for case in suite.cases:
        if case.mode in ("hub", "fleet", "pyramid") and (
            backend is not None or workers is not None
        ):
            case = replace(
                case,
                backend=backend if backend is not None else case.backend,
                workers=workers if workers is not None else case.workers,
            )
        if case.mode in ("hub", "pyramid") and block_size is not None:
            case = replace(case, block_size=block_size)
        fleet = build_fleet(case)
        total_points = sum(len(trajectory) for trajectory in fleet)
        records = interleave_fleet(fleet) if case.mode in ("hub", "pyramid") else None
        for algorithm in suite.algorithms:
            # ``backend``/``workers`` record what actually ran — a serial
            # cell requested with workers=4 reports serial/1, a hub case
            # with more workers than shards reports the clamped count.
            scan_fraction = 1.0
            level_compression: list[float] | None = None
            bytes_shipped = 0
            frames_per_second = 0.0
            if case.mode == "pyramid" and not get_descriptor(algorithm).pyramid_capable:
                # A mixed suite (e.g. ``quick``) may carry algorithms that
                # cannot serve a pyramid; skipping beats crashing, and the
                # absent cell shows up in ``compare`` as missing, not as a
                # regression.
                if progress is not None:
                    progress(f"{case.name}:{algorithm} skipped (not pyramid-capable)")
                continue
            if case.mode == "pyramid":
                wall, segments, by_level, ran_backend, ran_workers = _time_pyramid(
                    algorithm, case, records, effective_repeats
                )
                ratio = segments / total_points if total_points else 0.0
                level_compression = [
                    count / total_points if total_points else 0.0 for count in by_level
                ]
            elif case.mode == "hub":
                (
                    wall,
                    segments,
                    ran_backend,
                    ran_workers,
                    bytes_shipped,
                    frames_per_second,
                ) = _time_hub(algorithm, case, records, effective_repeats)
                ratio = segments / total_points if total_points else 0.0
            elif case.mode == "store":
                wall, segments, ratio, scan_fraction = _time_store(
                    algorithm, case, fleet, effective_repeats
                )
                ran_backend, ran_workers = "serial", 1
            elif case.mode == "fleet":
                wall, representations, ran_backend, ran_workers = _time_fleet_executor(
                    algorithm, case, fleet, effective_repeats
                )
                segments = sum(rep.n_segments for rep in representations)
                ratio = fleet_compression_ratio(representations)
            else:
                session = Simplifier(algorithm, case.epsilon)
                wall, representations = _time_fleet(session, fleet, effective_repeats)
                segments = sum(rep.n_segments for rep in representations)
                ratio = fleet_compression_ratio(representations)
                ran_backend, ran_workers = "serial", 1
            measurement = Measurement(
                case=case.name,
                algorithm=algorithm,
                epsilon=case.epsilon,
                points=total_points,
                trajectories=len(fleet),
                repeats=effective_repeats,
                wall_seconds=wall,
                points_per_second=total_points / wall if wall > 0.0 else float("inf"),
                segments=segments,
                compression_ratio=ratio,
                mode=case.mode,
                backend=ran_backend,
                workers=ran_workers,
                block_size=case.block_size,
                scan_fraction=scan_fraction,
                levels=case.levels,
                level_compression=level_compression,
                bytes_shipped=bytes_shipped,
                frames_per_second=frames_per_second,
            )
            report.results.append(measurement)
            if progress is not None:
                progress(
                    f"{measurement.case}:{measurement.algorithm} "
                    f"[{measurement.backend}x{measurement.workers}] "
                    f"{measurement.points_per_second:,.0f} points/s "
                    f"(wall {measurement.wall_seconds:.4f}s, "
                    f"ratio {measurement.compression_ratio:.4f})"
                )
    return report


def write_report(report: PerfReport, path: str | Path) -> Path:
    """Serialise ``report`` to ``path`` (conventionally ``BENCH_results.json``)."""
    path = Path(path)
    path.write_text(report.to_json())
    return path


def load_report(path: str | Path) -> PerfReport:
    """Load a report previously written by :func:`write_report`."""
    payload = json.loads(Path(path).read_text())
    return PerfReport.from_dict(payload)
