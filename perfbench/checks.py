"""The correctness gate on what an ingest left in the store.

Runs outside every timed section.  Each device's finest stored level must
equal a direct ``Simplifier(algorithm, epsilon).open_stream()`` run over that
device's points, and every stored level must honour its error bound against
the raw trajectory.
"""

from __future__ import annotations

from repro import Simplifier
from repro.metrics.error import check_error_bound
from repro.store import Store
from repro.trajectory import Trajectory
from repro.trajectory.piecewise import PiecewiseRepresentation, SegmentRecord

from workloads import LogSummary, Workload


def direct_segments(algorithm: str, epsilon: float, points: list) -> list[SegmentRecord]:
    """The reference: a bare stream session pushed one point at a time."""
    session = Simplifier(algorithm, epsilon).open_stream()
    segments: list[SegmentRecord] = []
    for point in points:
        segments.extend(session.push(point))
    segments.extend(session.finish())
    return segments


def check_store(workload: Workload, summary: LogSummary, store: Store) -> tuple[list[str], int]:
    """Returns the problems found and the finest level's stored segment count."""
    problems: list[str] = []
    finest = 0
    for device in summary.devices:
        points = summary.points_by_device[device]
        trajectory = Trajectory.from_points(points, trajectory_id=device)
        for level, epsilon in enumerate(workload.ladder):
            stored = [s.record for s in store.query(device=device, epsilon=epsilon).segments]
            if level == 0:
                finest += len(stored)
                if stored != direct_segments(workload.algorithm, epsilon, points):
                    problems.append(
                        f"{device}: stored segments at epsilon {epsilon} differ from a "
                        f"direct {workload.algorithm} stream"
                    )
            representation = PiecewiseRepresentation(
                segments=stored, source_size=len(points), algorithm=workload.algorithm
            )
            if not check_error_bound(trajectory, representation, epsilon):
                problems.append(f"{device}: level {level} breaks its bound {epsilon}")
    return problems, finest
