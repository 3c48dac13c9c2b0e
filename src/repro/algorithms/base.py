"""Common interfaces shared by all line-simplification algorithms.

Every algorithm in this package — the paper's OPERB/OPERB-A and the
baselines it is compared against — consumes a
:class:`~repro.trajectory.model.Trajectory` and an error bound and produces a
:class:`~repro.trajectory.piecewise.PiecewiseRepresentation`.  Batch
algorithms are exposed as plain functions with that signature; streaming
algorithms additionally implement the :class:`StreamingSimplifier` protocol
(``push`` / ``finish``).

Block ingest
------------
Streaming simplifiers may additionally implement the *batched* ingest
protocol over :class:`~repro.trajectory.soa.PointBlock` — one method:

``push_block_steps(block) -> Iterator[tuple[int, list[SegmentRecord]]]``
    Feed a whole SoA block of points with the inner loops running the
    vectorized prefix kernels of :mod:`repro.geometry.kernels`.  Each
    ``(count, segments)`` step means "``count`` further points were
    ingested and the last of them emitted ``segments``".  Driving the steps
    is byte-identical (segments, statistics, snapshots) to pushing the same
    points one at a time and reproduces the exact per-push emission
    positions, which is what keeps per-device lag accounting (and therefore
    hub checkpoints) byte-identical to per-point ingest.

:func:`iter_block_steps` is how every caller drives it: it uses a
simplifier's native ``push_block_steps`` when present and otherwise falls
back to a correct (if slow) per-point loop, so *every* streaming simplifier
— including third-party ones without the protocol — accepts blocks.  The
flattened ``push_block(block) -> list[SegmentRecord]`` lives on the
sessions (:class:`repro.api.StreamSession`,
:class:`repro.streaming.PyramidSession`), not on the simplifiers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

from ..exceptions import InvalidParameterError
from ..geometry.point import Point
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import (
    PiecewiseRepresentation,
    SegmentCascadeMixin,
    SegmentRecord,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trajectory.soa import PointBlock

__all__ = [
    "SegmentCascadeMixin",
    "SimplificationFunction",
    "StreamingSimplifier",
    "validate_epsilon",
    "trivial_representation",
    "iter_block_steps",
]


@runtime_checkable
class SimplificationFunction(Protocol):
    """A batch simplification callable ``(trajectory, epsilon, **kwargs)``."""

    def __call__(
        self, trajectory: Trajectory, epsilon: float, **kwargs
    ) -> PiecewiseRepresentation:  # pragma: no cover - protocol signature only
        ...


@runtime_checkable
class StreamingSimplifier(Protocol):
    """A push-based simplifier (OPERB, OPERB-A, and the streaming adapters)."""

    def push(self, point: Point) -> list[SegmentRecord]:  # pragma: no cover
        ...

    def finish(self) -> list[SegmentRecord]:  # pragma: no cover
        ...


def _per_point_steps(
    simplifier: StreamingSimplifier, block: "PointBlock"
) -> Iterator[tuple[int, list[SegmentRecord]]]:
    """Generic per-point fallback for :func:`iter_block_steps`."""
    for i in range(len(block)):
        yield 1, list(simplifier.push(block.point(i)))


def iter_block_steps(
    simplifier: object, block: "PointBlock"
) -> Iterator[tuple[int, list[SegmentRecord]]]:
    """Traced block ingest over any streaming simplifier.

    Uses the simplifier's native ``push_block_steps`` when it implements the
    batched protocol; otherwise pushes the block point by point (one step per
    point) — correct for every push/finish simplifier, just without the
    vectorized fast path.
    """
    native = getattr(simplifier, "push_block_steps", None)
    if native is not None:
        return native(block)
    return _per_point_steps(simplifier, block)


def validate_epsilon(epsilon: float) -> float:
    """Validate and return a positive error bound."""
    if not epsilon > 0.0:
        raise InvalidParameterError(f"error bound must be positive, got {epsilon!r}")
    return float(epsilon)


def trivial_representation(
    trajectory: Trajectory, *, algorithm: str
) -> PiecewiseRepresentation | None:
    """Handle trajectories too small to simplify.

    Returns a finished representation for trajectories with fewer than three
    points, or ``None`` when the caller should run its real algorithm.
    """
    n = len(trajectory)
    if n >= 3:
        return None
    if n < 2:
        return PiecewiseRepresentation(segments=[], source_size=n, algorithm=algorithm)
    return PiecewiseRepresentation(
        segments=[SegmentRecord.from_indices(trajectory, 0, n - 1)],
        source_size=n,
        algorithm=algorithm,
    )
