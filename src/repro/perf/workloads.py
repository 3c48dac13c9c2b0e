"""Declared workload suites for the performance harness.

A :class:`PerfSuite` is a named, fully-reproducible description of what the
harness measures: which synthetic fleets to generate (seeded
:class:`PerfCase` entries) and which registered algorithms to run over them.
Suites are *declared* rather than ad hoc so two runs of the same suite —
today, next month, on another machine — measure exactly the same work and
their ``BENCH_results.json`` files can be diffed by
:mod:`repro.perf.compare`.

These suites ship by default:

``smoke``
    A few hundred points; used by the unit tests and the CLI smoke test.
``quick``
    The CI gating suite (a few seconds): two fleets plus two multi-device
    ``hub``-mode cases — one serial, one on the thread backend — covering
    the paper's headline algorithms.
``hub``
    Concurrent-ingest workloads: every case replays an interleaved
    multi-device point log through a :class:`repro.streaming.StreamHub`
    (one device per trajectory), measuring aggregate hub throughput across
    the serial, thread and node execution backends.
``fleet``
    Backend-scaling cases for the fleet executor: the same fleet through
    ``Simplifier.run_many`` on every :mod:`repro.exec` backend.
``blocks``
    Block-ingest workloads: an idle-heavy fleet (dense dwell phases, the
    regime the SoA ``push_block_steps`` path is built for) replayed through the
    hub with a large ``block_size`` on the serial, thread and node
    backends — the suite that demonstrates the thread backend beating
    serial on hub ingest once shard workers do vectorized block work.
``store``
    Segment-store workloads: the fleet is simplified (untimed), then the
    timed phase drives a fresh :mod:`repro.store` segment store.  A case's
    ``store_op`` picks the shape: ``query`` ingests and runs one
    device/time-window query per device (ingest throughput plus zone-map
    pruning), ``compact`` ingests in many small batches, compacts and
    queries (the maintenance path), and ``aggregate`` times fully-covered
    window aggregates answered from the zone maps alone (scan
    fraction 0).
``pyramid``
    Multi-resolution ingest: the same interleaved log as a ``hub`` case,
    but served through an epsilon pyramid of ``levels`` resolutions
    (ladder ``epsilon * 2**i``) in one pass.  The ``levels=1`` cases are
    the single-resolution reference the k>1 cells are judged against —
    the pyramid's pitch is k resolutions for well under k times the cost.
``full``
    All four dataset profiles at a larger scale for local investigations.

A case's ``mode`` selects what the harness drives: ``"batch"`` runs the
fleet through ``Simplifier.run``; ``"hub"`` routes the same points, in
round-robin arrival order, through a stream hub; ``"fleet"`` fans the fleet
out over ``Simplifier.run_many``; ``"store"`` ingests the simplified
segments into a segment store and queries it back; ``"pyramid"`` routes
the hub traffic through a multi-resolution epsilon ladder.
``backend``/``workers`` pick the :mod:`repro.exec` execution backend for
the ``hub`` and ``fleet`` modes.
The interleaved log of a hub case comes from :func:`build_device_log`,
which is also the generator the hub tests share (via the
``device_point_log`` fixture) so tests and benchmarks measure the same
traffic shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..datasets.generator import generate_dataset
from ..datasets.profiles import get_profile
from ..exceptions import InvalidParameterError
from ..geometry.point import Point
from ..trajectory.model import Trajectory

__all__ = [
    "PerfCase",
    "PerfSuite",
    "SUITES",
    "GATING_ALGORITHMS",
    "CASE_BACKENDS",
    "CASE_MODES",
    "STORE_OPS",
    "IDLE_FLEET_PROFILE",
    "get_suite",
    "build_fleet",
    "build_idle_fleet",
    "build_device_log",
    "interleave_fleet",
]

GATING_ALGORITHMS = ("dp", "opw", "operb", "operb-a")
"""Algorithms every gating suite must cover: the batch reference (DP), the
window baseline (OPW) and the paper's two contributions."""


CASE_MODES = ("batch", "hub", "fleet", "store", "pyramid")
"""Valid values of :attr:`PerfCase.mode`."""

CASE_BACKENDS = ("serial", "thread", "node")
"""Valid values of :attr:`PerfCase.backend` (declared cases are explicit —
no ``auto`` — so a suite measures the same runtime everywhere)."""

STORE_OPS = ("query", "compact", "aggregate")
"""Valid values of :attr:`PerfCase.store_op` (``store`` mode only):
``query`` times ingest plus per-device window queries, ``compact`` times a
many-small-chunk ingest followed by compaction and the same queries, and
``aggregate`` times fully-covered window aggregates answered from the
zone maps alone (scan fraction 0)."""

IDLE_FLEET_PROFILE = "idle-fleet"
"""Pseudo-profile name selecting :func:`build_idle_fleet` in a case.

An idle-heavy fleet: short driving bursts separated by long stationary
dwells, during which devices keep reporting at full cadence (half the
dwells re-send the exact last fix — parked hardware — and half jitter
around it by GPS noise).  This is the regime the block-ingest path is built
for: dwell phases form long absorbable runs that the vectorized prefix
kernels consume in one call each, while the paper's dataset profiles
(sparse sampling relative to epsilon) exercise the scalar-backoff side.
"""



@dataclass(frozen=True, slots=True)
class PerfCase:
    """One seeded synthetic fleet measured by a suite.

    ``mode="hub"`` turns the fleet into a multi-device ingest workload: one
    device per trajectory, points interleaved round-robin, driven through a
    :class:`repro.streaming.StreamHub` instead of per-trajectory batch runs.
    ``mode="fleet"`` drives the fleet through the batch executor
    (``Simplifier.run_many``).  ``mode="store"`` ingests the simplified
    fleet into a fresh segment store and queries it back (always inline).
    ``backend`` and ``workers`` select the :mod:`repro.exec` execution
    backend for the hub and fleet modes (batch and store cases always run
    inline).
    """

    name: str
    profile: str
    n_trajectories: int
    points_per_trajectory: int
    epsilon: float = 40.0
    seed: int = 2017
    mode: str = "batch"
    backend: str = "serial"
    workers: int = 1
    block_size: int = 512
    """Hub ``block_size`` (records per shipped worker batch; ``hub`` mode
    only).  Execution knob: any value measures the same semantic work."""
    store_op: str = "query"
    """What the timed phase of a ``store`` case does (see :data:`STORE_OPS`);
    ignored by the other modes."""
    levels: int = 1
    """Depth of the epsilon ladder of a ``pyramid`` case (the harness
    serves ``epsilon * 2**i`` for ``i`` in ``range(levels)``); ignored by
    the other modes.  ``levels=1`` is the single-resolution reference."""

    def __post_init__(self) -> None:
        if self.mode not in CASE_MODES:
            raise InvalidParameterError(
                f"case mode must be one of {CASE_MODES}, got {self.mode!r}"
            )
        if self.store_op not in STORE_OPS:
            raise InvalidParameterError(
                f"case store_op must be one of {STORE_OPS}, got {self.store_op!r}"
            )
        if self.backend not in CASE_BACKENDS:
            raise InvalidParameterError(
                f"case backend must be one of {CASE_BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 1:
            raise InvalidParameterError(
                f"case workers must be at least 1, got {self.workers}"
            )
        if self.block_size < 1:
            raise InvalidParameterError(
                f"case block_size must be at least 1, got {self.block_size}"
            )
        if self.levels < 1:
            raise InvalidParameterError(
                f"case levels must be at least 1, got {self.levels}"
            )

    @property
    def total_points(self) -> int:
        """Total number of points processed per algorithm for this case."""
        return self.n_trajectories * self.points_per_trajectory


@dataclass(frozen=True, slots=True)
class PerfSuite:
    """A named set of cases and algorithms the harness runs together."""

    name: str
    cases: tuple[PerfCase, ...]
    algorithms: tuple[str, ...]
    repeats: int = 3
    """Timing repeats per (case, algorithm); the best wall time is kept."""


_SMOKE = PerfSuite(
    name="smoke",
    cases=(PerfCase("taxi-300", "taxi", n_trajectories=1, points_per_trajectory=300),),
    algorithms=GATING_ALGORITHMS,
    repeats=1,
)

_QUICK = PerfSuite(
    name="quick",
    cases=(
        PerfCase("taxi-2x2k", "taxi", n_trajectories=2, points_per_trajectory=2_000),
        PerfCase("sercar-2x2k", "sercar", n_trajectories=2, points_per_trajectory=2_000),
        PerfCase("hub-64x500", "taxi", n_trajectories=64, points_per_trajectory=500, mode="hub"),
        PerfCase(
            "hub-64x500-t4",
            "taxi",
            n_trajectories=64,
            points_per_trajectory=500,
            mode="hub",
            backend="thread",
            workers=4,
        ),
        PerfCase(
            "hub-blocks-16x1k-t4",
            IDLE_FLEET_PROFILE,
            n_trajectories=16,
            points_per_trajectory=1_000,
            mode="hub",
            backend="thread",
            workers=4,
            block_size=4_096,
        ),
        PerfCase(
            "hub-64x500-n2",
            "taxi",
            n_trajectories=64,
            points_per_trajectory=500,
            mode="hub",
            backend="node",
            workers=2,
        ),
        PerfCase(
            "store-32x500", "taxi", n_trajectories=32, points_per_trajectory=500, mode="store"
        ),
        PerfCase(
            "store-compact-32x500",
            "taxi",
            n_trajectories=32,
            points_per_trajectory=500,
            mode="store",
            store_op="compact",
        ),
        PerfCase(
            "store-agg-32x500",
            "taxi",
            n_trajectories=32,
            points_per_trajectory=500,
            mode="store",
            store_op="aggregate",
        ),
        PerfCase(
            "pyramid-16x500-k4",
            "taxi",
            n_trajectories=16,
            points_per_trajectory=500,
            mode="pyramid",
            levels=4,
        ),
    ),
    algorithms=GATING_ALGORITHMS + ("fbqs",),
    repeats=3,
)

_HUB = PerfSuite(
    name="hub",
    cases=(
        PerfCase("hub-256x400", "taxi", n_trajectories=256, points_per_trajectory=400, mode="hub"),
        PerfCase(
            "hub-256x400-t8",
            "taxi",
            n_trajectories=256,
            points_per_trajectory=400,
            mode="hub",
            backend="thread",
            workers=8,
        ),
        PerfCase(
            "hub-256x400-n4",
            "taxi",
            n_trajectories=256,
            points_per_trajectory=400,
            mode="hub",
            backend="node",
            workers=4,
        ),
        PerfCase(
            "hub-1024x100", "sercar", n_trajectories=1024, points_per_trajectory=100, mode="hub"
        ),
    ),
    algorithms=("operb", "operb-a", "fbqs", "dead-reckoning"),
    repeats=3,
)

_FLEET = PerfSuite(
    name="fleet",
    cases=(
        PerfCase("fleet-16x2k", "taxi", n_trajectories=16, points_per_trajectory=2_000, mode="fleet"),
        PerfCase(
            "fleet-16x2k-t4",
            "taxi",
            n_trajectories=16,
            points_per_trajectory=2_000,
            mode="fleet",
            backend="thread",
            workers=4,
        ),
        PerfCase(
            "fleet-16x2k-n4",
            "taxi",
            n_trajectories=16,
            points_per_trajectory=2_000,
            mode="fleet",
            backend="node",
            workers=4,
        ),
    ),
    algorithms=("operb", "operb-a"),
    repeats=3,
)

_FULL = PerfSuite(
    name="full",
    cases=(
        PerfCase("taxi-4x5k", "taxi", n_trajectories=4, points_per_trajectory=5_000),
        PerfCase("truck-4x5k", "truck", n_trajectories=4, points_per_trajectory=5_000),
        PerfCase("sercar-4x5k", "sercar", n_trajectories=4, points_per_trajectory=5_000),
        PerfCase("geolife-4x5k", "geolife", n_trajectories=4, points_per_trajectory=5_000),
        PerfCase("hub-512x400", "taxi", n_trajectories=512, points_per_trajectory=400, mode="hub"),
        PerfCase(
            "hub-512x400-t8",
            "taxi",
            n_trajectories=512,
            points_per_trajectory=400,
            mode="hub",
            backend="thread",
            workers=8,
        ),
        PerfCase(
            "fleet-8x5k-n4",
            "taxi",
            n_trajectories=8,
            points_per_trajectory=5_000,
            mode="fleet",
            backend="node",
            workers=4,
        ),
    ),
    algorithms=GATING_ALGORITHMS + ("fbqs", "bqs", "dp-sed", "opw-tr"),
    repeats=3,
)

_BLOCKS = PerfSuite(
    name="blocks",
    cases=(
        PerfCase(
            "blocks-16x2k",
            IDLE_FLEET_PROFILE,
            n_trajectories=16,
            points_per_trajectory=2_000,
            mode="hub",
            block_size=4_096,
        ),
        PerfCase(
            "blocks-16x2k-t4",
            IDLE_FLEET_PROFILE,
            n_trajectories=16,
            points_per_trajectory=2_000,
            mode="hub",
            backend="thread",
            workers=4,
            block_size=4_096,
        ),
        PerfCase(
            "blocks-16x2k-n4",
            IDLE_FLEET_PROFILE,
            n_trajectories=16,
            points_per_trajectory=2_000,
            mode="hub",
            backend="node",
            workers=4,
            block_size=4_096,
        ),
    ),
    algorithms=("operb", "operb-a", "dead-reckoning"),
    repeats=3,
)

_STORE = PerfSuite(
    name="store",
    cases=(
        PerfCase(
            "store-64x500", "taxi", n_trajectories=64, points_per_trajectory=500, mode="store"
        ),
        PerfCase(
            "store-128x200",
            "sercar",
            n_trajectories=128,
            points_per_trajectory=200,
            mode="store",
        ),
        PerfCase(
            "store-16x2k", "truck", n_trajectories=16, points_per_trajectory=2_000, mode="store"
        ),
        PerfCase(
            "store-compact-64x500",
            "taxi",
            n_trajectories=64,
            points_per_trajectory=500,
            mode="store",
            store_op="compact",
        ),
        PerfCase(
            "store-agg-64x500",
            "taxi",
            n_trajectories=64,
            points_per_trajectory=500,
            mode="store",
            store_op="aggregate",
        ),
    ),
    algorithms=("operb", "operb-a"),
    repeats=3,
)

_PYRAMID = PerfSuite(
    name="pyramid",
    cases=(
        # The k=1 cells are the single-resolution reference: the claim the
        # suite exists to check is k=4 resolutions for well under 4x (and
        # in practice under 2x) the k=1 cost, because coarse levels re-ingest
        # O(segments) endpoints, not O(points).
        PerfCase(
            "pyramid-32x500-k1",
            "taxi",
            n_trajectories=32,
            points_per_trajectory=500,
            mode="pyramid",
            levels=1,
        ),
        PerfCase(
            "pyramid-32x500-k4",
            "taxi",
            n_trajectories=32,
            points_per_trajectory=500,
            mode="pyramid",
            levels=4,
        ),
        PerfCase(
            "pyramid-32x500-k4-t4",
            "taxi",
            n_trajectories=32,
            points_per_trajectory=500,
            mode="pyramid",
            levels=4,
            backend="thread",
            workers=4,
        ),
    ),
    algorithms=("operb", "operb-a", "dp-sed"),
    repeats=3,
)

SUITES: dict[str, PerfSuite] = {
    suite.name: suite
    for suite in (_SMOKE, _QUICK, _HUB, _FLEET, _FULL, _BLOCKS, _STORE, _PYRAMID)
}
"""The declared suites, by name."""


def get_suite(name: str) -> PerfSuite:
    """Look up a declared suite by name."""
    try:
        return SUITES[name.lower()]
    except KeyError:
        raise InvalidParameterError(
            f"unknown perf suite {name!r}; available: {', '.join(sorted(SUITES))}"
        ) from None


_IDLE_MOVING_POINTS = 50
_IDLE_DWELL_POINTS = 950
_IDLE_SPEED = 9.0
_IDLE_NOISE = 1.0
_IDLE_JITTER = 0.5


def build_idle_fleet(case: PerfCase) -> list[Trajectory]:
    """Synthesise the (seeded, deterministic) idle-heavy fleet of one case."""
    fleet: list[Trajectory] = []
    for index in range(case.n_trajectories):
        rng = np.random.default_rng((case.seed, index))
        n = case.points_per_trajectory
        xs = np.empty(n)
        ys = np.empty(n)
        x = y = 0.0
        produced = 0
        cycle = 0
        while produced < n:
            heading = rng.uniform(0.0, 2.0 * math.pi)
            for _ in range(min(_IDLE_MOVING_POINTS, n - produced)):
                x += _IDLE_SPEED * math.cos(heading) + rng.normal(0.0, _IDLE_NOISE)
                y += _IDLE_SPEED * math.sin(heading) + rng.normal(0.0, _IDLE_NOISE)
                xs[produced] = x
                ys[produced] = y
                produced += 1
            exact = cycle % 2 == 0
            for _ in range(min(_IDLE_DWELL_POINTS, n - produced)):
                if exact:
                    xs[produced] = x
                    ys[produced] = y
                else:
                    xs[produced] = x + rng.normal(0.0, _IDLE_JITTER)
                    ys[produced] = y + rng.normal(0.0, _IDLE_JITTER)
                produced += 1
            cycle += 1
        fleet.append(
            Trajectory(xs, ys, np.arange(n, dtype=float), trajectory_id=f"idle-{index:04d}")
        )
    return fleet


def build_fleet(case: PerfCase) -> list[Trajectory]:
    """Synthesise the (seeded, deterministic) fleet of one case."""
    if case.profile == IDLE_FLEET_PROFILE:
        return build_idle_fleet(case)
    return generate_dataset(
        get_profile(case.profile),
        n_trajectories=case.n_trajectories,
        points_per_trajectory=case.points_per_trajectory,
        seed=case.seed,
    )


def interleave_fleet(fleet: list[Trajectory]) -> list[tuple[str, Point]]:
    """Round-robin interleave a fleet into ``(device_id, point)`` records.

    Device ``i`` of the fleet is named ``dev-{i:04d}``; record order models
    concurrent devices reporting at the same cadence (one fix per device per
    round), which is the arrival pattern a stream hub must absorb.
    """
    streams = [(f"dev-{i:04d}", iter(trajectory)) for i, trajectory in enumerate(fleet)]
    records: list[tuple[str, Point]] = []
    while streams:
        still_alive: list[tuple[str, object]] = []
        for device_id, stream in streams:
            try:
                records.append((device_id, next(stream)))
            except StopIteration:
                continue
            still_alive.append((device_id, stream))
        streams = still_alive
    return records


def build_device_log(
    profile: str = "taxi",
    n_devices: int = 64,
    points_per_device: int = 200,
    *,
    seed: int = 2017,
) -> list[tuple[str, Point]]:
    """Seeded multi-device point log: the hub's canonical synthetic traffic.

    This is the single generator behind the ``hub`` perf cases, the hub test
    fixture and ``repro-traj serve-replay --synthetic`` — all three replay
    exactly this traffic shape, so numbers and behaviours line up.
    """
    case = PerfCase(
        name="device-log",
        profile=profile,
        n_trajectories=n_devices,
        points_per_trajectory=points_per_device,
        seed=seed,
        mode="hub",
    )
    return interleave_fleet(build_fleet(case))
