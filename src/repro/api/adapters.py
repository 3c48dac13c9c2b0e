"""Adapters exposing batch algorithms behind the streaming interface."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..exceptions import SimplificationError
from ..geometry.point import Point
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import SegmentRecord
from ..trajectory.soa import PointBlock
from .descriptors import AlgorithmDescriptor, get_descriptor

__all__ = ["BufferedBatchAdapter"]


class BufferedBatchAdapter:
    """Expose a batch algorithm through the push/finish streaming interface.

    The adapter buffers every pushed point and runs the batch algorithm at
    :meth:`finish`.  It exists so pipelines can swap OPERB for DP (say) and
    measure what the batch requirement costs in latency and memory.

    The buffer is chunked: per-point pushes append :class:`Point` objects,
    :meth:`push_block_steps` appends whole
    :class:`~repro.trajectory.PointBlock` chunks in O(1) — block ingest
    costs nothing per point, and :meth:`finish` concatenates the chunks into
    coordinate arrays without rebuilding Python objects.  Interleaving
    ``push`` and block ingest preserves arrival order.

    Keyword arguments are validated against the algorithm's descriptor at
    construction time, so a misconfigured adapter fails before any points
    have been buffered rather than at :meth:`finish`.
    """

    # Not snapshot state (RPA001): descriptor/name/epsilon/_kwargs are the
    # immutable configuration the restoring side supplies; ``_buffered`` is
    # derived from the chunk lengths and recomputed on restore.
    _SNAPSHOT_EXCLUDE = frozenset({"descriptor", "name", "epsilon", "_kwargs", "_buffered"})

    def __init__(
        self, algorithm: str | AlgorithmDescriptor, epsilon: float, **kwargs
    ) -> None:
        self.descriptor = get_descriptor(algorithm)
        self.descriptor.validate_kwargs(kwargs)
        self.name = self.descriptor.name
        self.epsilon = epsilon
        self._kwargs = kwargs
        self._chunks: list[Point | PointBlock] = []
        self._buffered = 0
        self._finished = False

    def push(self, point: Point) -> list[SegmentRecord]:
        """Buffer the point; batch algorithms cannot emit anything early."""
        if self._finished:
            raise SimplificationError(
                f"cannot push to a finished {self.name!r} adapter"
            )
        self._chunks.append(point)
        self._buffered += 1
        return []

    def push_block_steps(
        self, block: PointBlock
    ) -> Iterator[tuple[int, list[SegmentRecord]]]:
        """Buffer a whole block in O(1); returns one silent traced step.

        The block is buffered eagerly, before the returned iterator is
        driven; nothing can be emitted early.
        """
        if self._finished:
            raise SimplificationError(
                f"cannot push to a finished {self.name!r} adapter"
            )
        if len(block) == 0:
            return iter(())
        self._chunks.append(block)
        self._buffered += len(block)
        return iter(((len(block), []),))

    def push_segment(
        self, segment: SegmentRecord, *, include_start: bool = False
    ) -> list[SegmentRecord]:
        """Re-ingest a finer pyramid level's segment endpoints (buffered).

        Batch algorithms cannot emit anything early, so the endpoints are
        simply buffered like any other points; :meth:`finish` simplifies
        the accumulated coarse polyline in one batch run.
        """
        emitted: list[SegmentRecord] = []
        if include_start:
            emitted.extend(self.push(segment.start))
        emitted.extend(self.push(segment.end))
        return emitted

    def _buffered_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate the buffered chunks into ``(xs, ys, ts)`` arrays."""
        xs_parts: list[np.ndarray] = []
        ys_parts: list[np.ndarray] = []
        ts_parts: list[np.ndarray] = []
        run: list[Point] = []

        def flush_run() -> None:
            if run:
                xs_parts.append(np.array([p.x for p in run], dtype=float))
                ys_parts.append(np.array([p.y for p in run], dtype=float))
                ts_parts.append(np.array([p.t for p in run], dtype=float))
                run.clear()

        for chunk in self._chunks:
            if isinstance(chunk, PointBlock):
                flush_run()
                xs_parts.append(chunk.xs)
                ys_parts.append(chunk.ys)
                ts_parts.append(chunk.ts)
            else:
                run.append(chunk)
        flush_run()
        if not xs_parts:
            empty = np.array([], dtype=float)
            return empty, empty.copy(), empty.copy()
        return (
            np.concatenate(xs_parts),
            np.concatenate(ys_parts),
            np.concatenate(ts_parts),
        )

    def finish(self) -> list[SegmentRecord]:
        """Run the underlying batch algorithm over the buffered stream.

        Raises
        ------
        SimplificationError
            On a second call: the buffered points were already consumed, so
            silently returning ``[]`` would hide a pipeline bug.
        """
        if self._finished:
            raise SimplificationError(
                f"{self.name!r} adapter was already finished; "
                f"open a new stream session to process another trajectory"
            )
        self._finished = True
        xs, ys, ts = self._buffered_arrays()
        trajectory = Trajectory(xs, ys, ts, require_monotonic_time=False)
        representation = self.descriptor.batch(trajectory, self.epsilon, **self._kwargs)
        return list(representation.segments)

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    @property
    def buffered_points(self) -> int:
        """Number of points currently held in memory (the adapter's cost)."""
        return self._buffered

    def snapshot(self) -> dict:
        """JSON-serialisable state: the whole buffer (the adapter's cost).

        Unlike the O(1) snapshots of the one-pass algorithms, an adapter
        checkpoint grows linearly with the stream — exactly the memory
        behaviour the paper's algorithms avoid, now visible in checkpoint
        size too.  The wire form is one ``[x, y, t]`` triple per point,
        identical whether the buffer arrived per point or in blocks.
        """
        points: list[list[float]] = []
        for chunk in self._chunks:
            if isinstance(chunk, PointBlock):
                xs, ys, ts = chunk.xs, chunk.ys, chunk.ts
                points.extend(
                    [float(xs[i]), float(ys[i]), float(ts[i])]
                    for i in range(xs.shape[0])
                )
            else:
                points.append([chunk.x, chunk.y, chunk.t])
        return {"points": points, "finished": self._finished}

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (fresh) adapter instance."""
        if self._chunks or self._finished:
            raise SimplificationError("restore() requires a fresh adapter instance")
        coords = state["points"]
        if coords:
            # One columnar chunk: values identical to per-point restoration.
            self._chunks = [
                PointBlock(
                    np.array([c[0] for c in coords], dtype=float),
                    np.array([c[1] for c in coords], dtype=float),
                    np.array([c[2] for c in coords], dtype=float),
                )
            ]
        self._buffered = len(coords)
        self._finished = bool(state["finished"])
