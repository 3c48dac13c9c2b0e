"""OPERB — the one-pass error bounded trajectory simplifier (paper Section 4).

:class:`OPERBSimplifier` is a push-based state machine: points are fed one at
a time through :meth:`~OPERBSimplifier.push`, finalised line segments are
returned as soon as they are determined, and :meth:`~OPERBSimplifier.finish`
flushes the trailing segment(s).  This is the natural realisation of the
paper's one-pass claim — every data point is examined once, against a state of
constant size — and also what a sensor on a mobile device would run.

The batch convenience function :func:`operb` wraps the streaming machine for
whole :class:`~repro.trajectory.model.Trajectory` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..exceptions import SimplificationError
from ..geometry import kernels
from ..geometry.kernels import ped_point_to_chord
from ..geometry.point import Point, decode_point, encode_point
from ..trajectory.blocks import drive_block_steps
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import (
    PiecewiseRepresentation,
    SegmentCascadeMixin,
    SegmentRecord,
)
from .config import OperbConfig
from .fitting import FittingState, PointOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trajectory.soa import PointBlock

__all__ = ["OperbStatistics", "OPERBSimplifier", "operb", "raw_operb"]


@dataclass
class OperbStatistics:
    """Aggregate counters of a simplification run."""

    points_processed: int = 0
    segments_emitted: int = 0
    anomalous_segments: int = 0
    absorbed_points: int = 0
    forced_breaks: int = 0
    distance_computations: int = 0

    def merge_fitting(self, fitting: FittingState) -> None:
        """Fold the distance-computation counter of a finished fitting state."""
        self.distance_computations += fitting.stats.distance_computations


@dataclass
class _SegmentInProgress:
    """Book-keeping for the segment currently being grown."""

    anchor: Point
    anchor_index: int
    fitting: FittingState
    last_active: Point | None = None
    last_active_index: int = -1
    points_in_segment: int = 1


@dataclass
class _AbsorptionState:
    """Book-keeping for optimisation 5 (absorbing points after a break)."""

    segment: SegmentRecord
    absorbed: int = 0


class OPERBSimplifier(SegmentCascadeMixin):
    """Streaming OPERB simplifier.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.OperbConfig`.  Use
        ``OperbConfig.optimized(epsilon)`` for the paper's OPERB and
        ``OperbConfig.raw(epsilon)`` for Raw-OPERB.

    Examples
    --------
    >>> from repro import OperbConfig, OPERBSimplifier, Point
    >>> simplifier = OPERBSimplifier(OperbConfig.optimized(10.0))
    >>> emitted = []
    >>> for i in range(100):
    ...     emitted.extend(simplifier.push(Point(float(i), 0.0, float(i))))
    >>> emitted.extend(simplifier.finish())
    >>> len(emitted)
    1
    """

    name = "operb"

    # Not snapshot state (RPA001): ``config`` is immutable configuration the
    # restoring side supplies, ``_probe_backoff`` is block-ingest probe
    # spacing — pure acceleration state that never affects output.
    _SNAPSHOT_EXCLUDE = frozenset({"config", "_probe_backoff"})

    def __init__(self, config: OperbConfig) -> None:
        self.config = config
        self.stats = OperbStatistics()
        self._segment: _SegmentInProgress | None = None
        self._absorption: _AbsorptionState | None = None
        self._index = -1
        self._previous_point: Point | None = None
        self._finished = False
        # Block-ingest probe spacing (acceleration state only: never part of
        # a snapshot, never observable in segments or statistics).
        self._probe_backoff = 0

    # ------------------------------------------------------------------ #
    # Public streaming API
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        """The error bound this simplifier enforces."""
        return self.config.epsilon

    @property
    def is_finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    def push(self, point: Point) -> list[SegmentRecord]:
        """Feed the next trajectory point; return any finalised segments."""
        if self._finished:
            raise SimplificationError("push() called after finish()")
        self._index += 1
        index = self._index
        self.stats.points_processed += 1
        emitted: list[SegmentRecord] = []

        if self._segment is None and self._absorption is None:
            # Very first point of the stream.
            self._start_segment(point, index)
            self._previous_point = point
            return emitted

        if self._absorption is not None:
            if self._try_absorb(point, index):
                self._previous_point = point
                return emitted
            emitted.append(self._end_absorption())
            # Fall through: the point is processed in the fresh segment below.

        assert self._segment is not None  # for type-checkers; guaranteed above
        self._process_in_segment(point, index, emitted)
        self._previous_point = point
        return emitted

    def push_block_steps(
        self, block: "PointBlock"
    ) -> Iterator[tuple[int, list[SegmentRecord]]]:
        """Feed a whole SoA block of points as traced ``(count, segments)`` steps.

        Each step ingests ``count`` further points of the block; ``segments``
        are the ones finalised by the last of them (empty for bulk-absorbed
        runs), so driving the steps reproduces per-push emission positions.
        Byte-identical to pushing the block's points one at a time — same
        segments, same statistics, same :meth:`snapshot` — but runs of
        absorbed points (pre-direction points near the anchor, inactive
        points inside the deviation budget, trailing points absorbed by
        optimisation 5) are detected with one vectorized prefix-kernel call
        each instead of per-point Python.  Only the run-breaking points go
        through the scalar :meth:`push`.
        """
        if self._finished:
            raise SimplificationError("push() called after finish()")
        if len(block) == 0:
            return iter(())
        return self._block_steps(block)

    def _block_steps(
        self, block: "PointBlock"
    ) -> Iterator[tuple[int, list[SegmentRecord]]]:
        xs = block.xs
        ys = block.ys
        n = xs.shape[0]
        config = self.config

        def probe(start: int) -> tuple[int, bool, bool]:
            if self._absorption is not None:
                absorbed = self._absorption.segment
                stop = start + min(n - start, kernels.BLOCK_LOOKAHEAD)
                count = kernels.chord_prefix_within(
                    xs[start:stop],
                    ys[start:stop],
                    absorbed.start.x,
                    absorbed.start.y,
                    absorbed.end.x,
                    absorbed.end.y,
                    config.epsilon,
                )
                if count:
                    self._bulk_absorb(block, start, count)
                return count, True, start + count == stop
            if self._segment is not None:
                room = config.max_points_per_segment - self._segment.points_in_segment
                if room > 0:
                    stop = start + min(n - start, room, kernels.BLOCK_LOOKAHEAD)
                    count = self._bulk_inactive(block, start, stop)
                    return count, True, start + count == stop
            # Segment cap exhausted (forced break) or the stream's very
            # first point: nothing to probe against.
            return 0, False, False

        return drive_block_steps(self, block, probe)

    def _bulk_absorb(self, block: "PointBlock", start: int, count: int) -> None:
        """Apply ``count`` successful absorptions (optimisation 5) at once."""
        absorption = self._absorption
        assert absorption is not None
        self._index += count
        self.stats.points_processed += count
        self.stats.distance_computations += count
        self.stats.absorbed_points += count
        absorption.absorbed += count
        absorption.segment = absorption.segment.with_point_count(
            absorption.segment.point_count + count
        ).with_covered_last_index(self._index)
        self._previous_point = block.point(start + count - 1)

    def _bulk_inactive(self, block: "PointBlock", start: int, stop: int) -> int:
        """Bulk-ingest the leading absorbed-inactive run of ``[start, stop)``.

        Returns the run length; all state a per-point loop would have touched
        for those points (fitting statistics, one-sided deviation maxima,
        indices, segment fill) is updated to the identical values.
        """
        segment = self._segment
        assert segment is not None
        fitting = segment.fitting
        config = self.config
        anchor = fitting.anchor
        xs = block.xs[start:stop]
        ys = block.ys[start:stop]
        if not fitting.has_direction:
            count = kernels.prefix_within_radius(
                xs, ys, anchor.x, anchor.y, config.first_active_threshold
            )
            if not count:
                return 0
            fitting.stats.points_observed += count
            fitting.stats.inactive_points += count
        else:
            count, d_plus, d_minus = kernels.operb_fitting_prefix(
                xs,
                ys,
                anchor.x,
                anchor.y,
                fitting.theta,
                fitting.last_active_theta,
                fitting.length,
                config.epsilon,
                config.quarter_epsilon,
                config.half_epsilon,
                config.opt_two_sided_deviation,
                fitting.d_plus_max,
                fitting.d_minus_max,
            )
            if not count:
                return 0
            fitting.d_plus_max = d_plus
            fitting.d_minus_max = d_minus
            fitting.stats.points_observed += count
            fitting.stats.inactive_points += count
            # One fitted-line and one last-active-line check per point.
            fitting.stats.distance_computations += 2 * count
        segment.points_in_segment += count
        self._index += count
        self.stats.points_processed += count
        self._previous_point = block.point(start + count - 1)
        return count

    def finish(self) -> list[SegmentRecord]:
        """Flush and return the remaining segment(s); further pushes are rejected."""
        if self._finished:
            return []
        self._finished = True
        emitted: list[SegmentRecord] = []

        if self._absorption is not None:
            segment = self._absorption.segment
            emitted.append(self._register(segment))
            if self._index > segment.last_index and self._previous_point is not None:
                emitted.append(
                    self._register(
                        SegmentRecord(
                            start=segment.end,
                            end=self._previous_point,
                            first_index=segment.last_index,
                            last_index=self._index,
                            point_count=2,
                        )
                    )
                )
            self._absorption = None
            return emitted

        segment = self._segment
        if segment is None:
            return emitted
        self.stats.merge_fitting(segment.fitting)
        if segment.last_active is not None:
            emitted.append(
                self._register(
                    SegmentRecord(
                        start=segment.anchor,
                        end=segment.last_active,
                        first_index=segment.anchor_index,
                        last_index=segment.last_active_index,
                        # Trailing inactive points were checked against this
                        # segment's lines, so they remain covered by it.
                        covered_last_index=self._index,
                    )
                )
            )
            if self._index > segment.last_active_index and self._previous_point is not None:
                emitted.append(
                    self._register(
                        SegmentRecord(
                            start=segment.last_active,
                            end=self._previous_point,
                            first_index=segment.last_active_index,
                            last_index=self._index,
                        )
                    )
                )
        elif self._index > segment.anchor_index and self._previous_point is not None:
            emitted.append(
                self._register(
                    SegmentRecord(
                        start=segment.anchor,
                        end=self._previous_point,
                        first_index=segment.anchor_index,
                        last_index=self._index,
                    )
                )
            )
        self._segment = None
        return emitted

    def simplify(self, trajectory: Trajectory) -> PiecewiseRepresentation:
        """Simplify a whole trajectory with this (fresh) simplifier instance."""
        if self._index >= 0 or self._finished:
            raise SimplificationError("simplify() requires a fresh simplifier instance")
        segments: list[SegmentRecord] = []
        for point in trajectory:
            segments.extend(self.push(point))
        segments.extend(self.finish())
        return PiecewiseRepresentation(
            segments=segments, source_size=len(trajectory), algorithm=self.name
        )

    # ------------------------------------------------------------------ #
    # Checkpoint protocol
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-serialisable state: resuming from it is byte-identical.

        The configuration is not included — :meth:`restore` must be called on
        a fresh simplifier built with the same :class:`OperbConfig`, which is
        the caller's (descriptor's/checkpoint's) responsibility.
        """
        segment = self._segment
        absorption = self._absorption
        return {
            "index": self._index,
            "finished": self._finished,
            "previous_point": encode_point(self._previous_point),
            "stats": vars(self.stats).copy(),
            "segment": None
            if segment is None
            else {
                "anchor": encode_point(segment.anchor),
                "anchor_index": segment.anchor_index,
                "fitting": segment.fitting.snapshot(),
                "last_active": encode_point(segment.last_active),
                "last_active_index": segment.last_active_index,
                "points_in_segment": segment.points_in_segment,
            },
            "absorption": None
            if absorption is None
            else {"segment": absorption.segment.to_dict(), "absorbed": absorption.absorbed},
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (fresh) simplifier instance."""
        if self._index >= 0 or self._finished:
            raise SimplificationError("restore() requires a fresh simplifier instance")
        self._index = int(state["index"])
        self._finished = bool(state["finished"])
        self._previous_point = decode_point(state["previous_point"])
        self.stats = OperbStatistics(**state["stats"])
        segment = state["segment"]
        if segment is None:
            self._segment = None
        else:
            self._segment = _SegmentInProgress(
                anchor=Point(*segment["anchor"]),
                anchor_index=int(segment["anchor_index"]),
                fitting=FittingState.from_snapshot(segment["fitting"], self.config),
                last_active=decode_point(segment["last_active"]),
                last_active_index=int(segment["last_active_index"]),
                points_in_segment=int(segment["points_in_segment"]),
            )
        absorption = state["absorption"]
        if absorption is None:
            self._absorption = None
        else:
            self._absorption = _AbsorptionState(
                segment=SegmentRecord.from_dict(absorption["segment"]),
                absorbed=int(absorption["absorbed"]),
            )

    # ------------------------------------------------------------------ #
    # Internal machinery
    # ------------------------------------------------------------------ #
    def _register(self, segment: SegmentRecord) -> SegmentRecord:
        """Account for an emitted segment in the run statistics."""
        self.stats.segments_emitted += 1
        if segment.is_anomalous:
            self.stats.anomalous_segments += 1
        return segment

    def _start_segment(self, anchor: Point, anchor_index: int) -> None:
        """Open a new segment anchored at ``anchor``."""
        self._segment = _SegmentInProgress(
            anchor=anchor,
            anchor_index=anchor_index,
            fitting=FittingState(anchor, self.config),
        )

    def _finalize_segment(self) -> SegmentRecord:
        """Close the current segment, returning its record."""
        segment = self._segment
        if segment is None:
            raise SimplificationError("no open segment to finalise")
        self.stats.merge_fitting(segment.fitting)
        if segment.last_active is not None:
            end_point = segment.last_active
            end_index = segment.last_active_index
        elif self._previous_point is not None and self._index - 1 > segment.anchor_index:
            # Extremely long runs of inactive points can exhaust the per-segment
            # cap before any active point appears; fall back to the previous point.
            end_point = self._previous_point
            end_index = self._index - 1
        else:
            end_point = segment.anchor
            end_index = segment.anchor_index
        # Inactive points observed after the last active point were checked
        # against this segment's lines (not the next segment's), so they stay
        # error-bounded by *this* segment: record them as covered by it.
        covered_last = max(end_index, self._index - 1)
        record = SegmentRecord(
            start=segment.anchor,
            end=end_point,
            first_index=segment.anchor_index,
            last_index=end_index,
            covered_last_index=covered_last,
        )
        self._segment = None
        return record

    def _process_in_segment(
        self, point: Point, index: int, emitted: list[SegmentRecord]
    ) -> None:
        """Feed ``point`` to the open segment, closing it if necessary."""
        segment = self._segment
        assert segment is not None
        cap_exceeded = segment.points_in_segment >= self.config.max_points_per_segment
        if cap_exceeded:
            self.stats.forced_breaks += 1
            outcome = PointOutcome.VIOLATION
        else:
            outcome = segment.fitting.observe(point)

        if outcome is PointOutcome.VIOLATION:
            record = self._finalize_segment()
            if self.config.opt_absorb_trailing_points:
                self._absorption = _AbsorptionState(segment=record)
                if self._try_absorb(point, index):
                    return
                emitted.append(self._end_absorption())
            else:
                emitted.append(self._register(record))
                self._start_segment(record.end, record.last_index)
            # The breaking point is the first point of the fresh segment; a
            # fresh fitting state can never report a violation for it.
            fresh = self._segment
            assert fresh is not None
            fresh_outcome = fresh.fitting.observe(point)
            if fresh_outcome is PointOutcome.VIOLATION:
                raise SimplificationError(
                    "fresh segment rejected its first point; this is a bug"
                )
            if fresh_outcome is PointOutcome.ACTIVE:
                fresh.last_active = point
                fresh.last_active_index = index
            fresh.points_in_segment += 1
            return

        if outcome is PointOutcome.ACTIVE:
            segment.last_active = point
            segment.last_active_index = index
        segment.points_in_segment += 1

    def _try_absorb(self, point: Point, index: int) -> bool:
        """Optimisation 5: try to absorb ``point`` into the pending segment."""
        absorption = self._absorption
        assert absorption is not None
        segment = absorption.segment
        self.stats.distance_computations += 1
        distance = ped_point_to_chord(
            point.x, point.y, segment.start.x, segment.start.y, segment.end.x, segment.end.y
        )
        if distance > self.config.epsilon:
            return False
        absorption.absorbed += 1
        self.stats.absorbed_points += 1
        absorption.segment = segment.with_point_count(
            segment.point_count + 1
        ).with_covered_last_index(index)
        return True

    def _end_absorption(self) -> SegmentRecord:
        """Stop absorbing, emit the pending segment, and open the next one."""
        absorption = self._absorption
        assert absorption is not None
        record = absorption.segment
        self._absorption = None
        self._start_segment(record.end, record.last_index)
        return self._register(record)


def operb(
    trajectory: Trajectory, epsilon: float, *, config: OperbConfig | None = None
) -> PiecewiseRepresentation:
    """Simplify ``trajectory`` with OPERB (all optimisations enabled).

    Parameters
    ----------
    trajectory:
        The trajectory to compress.
    epsilon:
        The error bound ``zeta``.
    config:
        Optional fully-specified configuration; when provided, ``epsilon`` is
        ignored in favour of ``config.epsilon``.
    """
    if config is None:
        config = OperbConfig.optimized(epsilon)
    return OPERBSimplifier(config).simplify(trajectory)


def raw_operb(trajectory: Trajectory, epsilon: float) -> PiecewiseRepresentation:
    """Simplify ``trajectory`` with Raw-OPERB (no optimisations, Figure 7 only)."""
    representation = OPERBSimplifier(OperbConfig.raw(epsilon)).simplify(trajectory)
    representation.algorithm = "raw-operb"
    return representation
