"""One-stop evaluation of a simplification result.

:func:`evaluate` bundles the compression, error and distribution metrics into
a single :class:`EvaluationReport`, and :func:`evaluate_fleet` aggregates the
same quantities over many trajectories the way the paper's experiments do
(totals over the fleet rather than means of per-trajectory ratios).

``evaluate_fleet`` can also compress the fleet itself: pass ``algorithm=``
(and optionally ``workers=``) instead of precomputed representations and it
routes the run through the fleet executor
(:meth:`repro.api.Simplifier.run_many`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import PiecewiseRepresentation
from .compression import compression_ratio, fleet_compression_ratio
from .distribution import anomalous_segment_count, merge_distributions, segment_size_distribution
from .error import per_point_errors

__all__ = ["EvaluationReport", "evaluate", "evaluate_fleet"]


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    """Evaluation of one or more simplification results."""

    algorithm: str
    epsilon: float
    total_points: int
    total_segments: int
    compression_ratio: float
    average_error: float
    max_error: float
    error_bound_satisfied: bool
    anomalous_segments: int
    segment_size_distribution: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (for reports and JSON serialisation)."""
        return {
            "algorithm": self.algorithm,
            "epsilon": self.epsilon,
            "total_points": self.total_points,
            "total_segments": self.total_segments,
            "compression_ratio": self.compression_ratio,
            "average_error": self.average_error,
            "max_error": self.max_error,
            "error_bound_satisfied": self.error_bound_satisfied,
            "anomalous_segments": self.anomalous_segments,
        }


def evaluate(
    trajectory: Trajectory,
    representation: PiecewiseRepresentation,
    epsilon: float,
    *,
    tolerance: float = 1e-9,
) -> EvaluationReport:
    """Evaluate a single trajectory's simplification result."""
    errors = per_point_errors(trajectory, representation)
    nearest_errors = per_point_errors(trajectory, representation, nearest_segment=True)
    threshold = epsilon * (1.0 + tolerance) + tolerance
    bound_ok = bool(np.all(nearest_errors <= threshold)) if nearest_errors.size else True
    return EvaluationReport(
        algorithm=representation.algorithm,
        epsilon=epsilon,
        total_points=len(trajectory),
        total_segments=representation.n_segments,
        compression_ratio=compression_ratio(representation),
        average_error=float(errors.mean()) if errors.size else 0.0,
        max_error=float(errors.max()) if errors.size else 0.0,
        error_bound_satisfied=bound_ok,
        anomalous_segments=anomalous_segment_count(representation),
        segment_size_distribution=segment_size_distribution(representation),
    )


def evaluate_fleet(
    trajectories: Sequence[Trajectory],
    representations: Sequence[PiecewiseRepresentation] | None = None,
    epsilon: float | None = None,
    *,
    algorithm: str | None = None,
    workers: int = 1,
    backend: str = "auto",
    tolerance: float = 1e-9,
    **algorithm_opts,
) -> EvaluationReport:
    """Evaluate a fleet: totals and point-weighted error averages.

    Either pass precomputed ``representations`` (index-aligned with
    ``trajectories``), or pass ``algorithm=`` to have the fleet compressed
    here through the unified API — ``workers``/``backend`` select the
    :mod:`repro.exec` execution backend (``workers > 1`` fans out over
    node worker processes by default).
    """
    if epsilon is None:
        raise InvalidParameterError("evaluate_fleet requires an epsilon")
    if representations is None:
        if algorithm is None:
            raise InvalidParameterError(
                "evaluate_fleet needs either precomputed representations or an algorithm="
            )
        from ..api.session import Simplifier  # local import; metrics is a lower layer

        fleet_run = Simplifier(algorithm, epsilon, **algorithm_opts).run_many(
            trajectories, workers=workers, backend=backend
        )
        representations = fleet_run.successful()
    elif algorithm is not None:
        raise InvalidParameterError(
            "pass either representations or algorithm=, not both"
        )
    elif algorithm_opts or workers != 1 or backend != "auto":
        # Without algorithm= these would be silently ignored (or are typos of
        # tolerance); fail loudly instead.
        stray = sorted(algorithm_opts) + (["workers"] if workers != 1 else [])
        stray += ["backend"] if backend != "auto" else []
        raise InvalidParameterError(
            f"unexpected keyword argument(s) {', '.join(stray)}: "
            f"compression options require the algorithm= path"
        )
    if len(trajectories) != len(representations):
        raise ValueError(
            f"{len(trajectories)} trajectories but {len(representations)} representations"
        )
    total_points = 0
    total_segments = 0
    error_sum = 0.0
    error_max = 0.0
    bound_ok = True
    anomalous = 0
    distributions: list[dict[int, int]] = []
    algorithm = representations[0].algorithm if representations else ""
    threshold = epsilon * (1.0 + tolerance) + tolerance
    for trajectory, representation in zip(trajectories, representations):
        errors = per_point_errors(trajectory, representation)
        nearest = per_point_errors(trajectory, representation, nearest_segment=True)
        total_points += len(trajectory)
        total_segments += representation.n_segments
        if errors.size:
            error_sum += float(errors.sum())
            error_max = max(error_max, float(errors.max()))
        if nearest.size and not bool(np.all(nearest <= threshold)):
            bound_ok = False
        anomalous += anomalous_segment_count(representation)
        distributions.append(segment_size_distribution(representation))
    return EvaluationReport(
        algorithm=algorithm,
        epsilon=epsilon,
        total_points=total_points,
        total_segments=total_segments,
        compression_ratio=fleet_compression_ratio(representations),
        average_error=error_sum / total_points if total_points else 0.0,
        max_error=error_max,
        error_bound_satisfied=bound_ok,
        anomalous_segments=anomalous,
        segment_size_distribution=merge_distributions(distributions),
    )
