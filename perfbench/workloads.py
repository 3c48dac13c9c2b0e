"""The benchmark's workloads and the seeded inputs each one replays.

Every workload replays one raw point log through ``StreamHub`` into a
segment store and then queries that store.  The log comes from the
repository's public generator (``repro.perf.build_device_log``), built from
``--seed`` before any set-up is timed; the program under test only ever
receives the ``(device_id, Point)`` records.  README.md in this directory
explains why each workload exists and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf import build_device_log
from repro.perf.workloads import IDLE_FLEET_PROFILE


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    devices: int
    points_per_device: int
    algorithm: str
    ladder: tuple[float, ...]
    """Error-bound ladder, finest first; one rung means a plain hub."""
    backend: str
    workers: int | None
    shards: int
    query_mix: tuple[tuple[str, int], ...]
    """``(query kind, weight)`` pairs; see :mod:`queries` for the kinds."""


TAXI_MIX = (("device", 3), ("bbox", 1), ("aggregate", 1))
PYRAMID_MIX = (("level", 3), ("aggregate", 1))
"""The cheapest kind holds 60-75% of each mix, so p50 falls inside one
latency cluster rather than in the gap between two."""

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("taxi-store", "taxi", 128, 1000, "operb", (40.0,),
                 "serial", None, 8, TAXI_MIX),
        Workload("taxi-node", "taxi", 128, 1000, "operb", (40.0,),
                 "node", 2, 8, TAXI_MIX),
        Workload("idle-pyramid", IDLE_FLEET_PROFILE, 64, 4000, "operb-a",
                 (40.0, 80.0, 160.0, 320.0), "serial", None, 8, PYRAMID_MIX),
    )
}

TINY_DEVICES = 4
TINY_POINTS = 300
"""Input size of ``--tiny`` runs (the smoke test): every code path, little work."""


def build_log(workload: Workload, seed: int, *, tiny: bool = False) -> list:
    """The workload's seeded ``(device_id, Point)`` log, devices interleaved."""
    devices = TINY_DEVICES if tiny else workload.devices
    points = TINY_POINTS if tiny else workload.points_per_device
    return build_device_log(workload.profile, devices, points, seed=seed)


@dataclass(frozen=True)
class LogSummary:
    """The input log by device, plus its spatial extent."""

    points_by_device: dict
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    @property
    def devices(self) -> list[str]:
        return sorted(self.points_by_device)


def summarize(log: list) -> LogSummary:
    by_device: dict[str, list] = {}
    for device_id, point in log:
        by_device.setdefault(device_id, []).append(point)
    points = [point for _, point in log]
    return LogSummary(
        points_by_device=by_device,
        x_min=min(p.x for p in points),
        x_max=max(p.x for p in points),
        y_min=min(p.y for p in points),
        y_max=max(p.y for p in points),
    )
