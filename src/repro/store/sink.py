"""Live ingest into the segment store via the :class:`SegmentSink` protocol.

:class:`StoreSink` adapts one device's stream of finalised
:class:`~repro.trajectory.piecewise.SegmentRecord` instances to
:meth:`repro.store.Store.append`, buffering a bounded number of segments
between appends so that hub-driven ingest amortises the per-append log
write over whole batches instead of paying it per segment.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..exceptions import InvalidParameterError, StoreError
from ..trajectory.piecewise import SegmentRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .store import Store

__all__ = ["StoreSink"]


class StoreSink:
    """A buffering segment sink that persists one device into a store.

    Satisfies the :class:`repro.streaming.sinks.SegmentSink` protocol
    (``accept``, plus optional ``flush``/``close``), so it plugs directly
    into :class:`~repro.streaming.hub.StreamHub` via ``sink_factory`` and
    into the fleet executor.  Segments are buffered and appended to the
    store in batches of ``buffer_size``; ``flush()`` forces the buffer out
    early and ``close()`` flushes then rejects further use.
    """

    __slots__ = ("_store", "_device_id", "_epsilon", "_buffer_size", "_buffer",
                 "_written", "_closed")

    def __init__(
        self,
        store: "Store",
        device_id: str,
        *,
        epsilon: float,
        buffer_size: int = 256,
    ) -> None:
        epsilon = float(epsilon)
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise InvalidParameterError(
                f"epsilon must be a positive float, got {epsilon!r}"
            )
        if buffer_size < 1:
            raise InvalidParameterError(
                f"buffer_size must be >= 1, got {buffer_size!r}"
            )
        self._store = store
        self._device_id = device_id
        self._epsilon = epsilon
        self._buffer_size = int(buffer_size)
        self._buffer: list[SegmentRecord] = []
        self._written = 0
        self._closed = False

    @property
    def device_id(self) -> str:
        """The device this sink persists."""
        return self._device_id

    @property
    def segments_written(self) -> int:
        """Segments flushed to the store so far (excludes the buffer)."""
        return self._written

    @property
    def pending(self) -> int:
        """Buffered segments not yet appended to the store."""
        return len(self._buffer)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def accept(self, segment: SegmentRecord) -> None:
        """Buffer one finalised segment, flushing at ``buffer_size``."""
        if self._closed:
            raise StoreError(
                f"StoreSink for device {self._device_id!r} is closed"
            )
        self._buffer.append(segment)
        if len(self._buffer) >= self._buffer_size:
            self.flush()

    def flush(self) -> None:
        """Append every buffered segment to the store.

        The buffer is only dropped once the append succeeds: a raising
        :meth:`Store.append` truncates the device log back to its size
        before the call (the append is all-or-nothing) and leaves every
        segment buffered here, so ``close()`` or a retrying caller re-sends the
        whole batch without losing or duplicating segments.
        """
        if not self._buffer:
            return
        written = self._store.append(
            self._device_id, self._buffer, epsilon=self._epsilon
        )
        self._buffer.clear()
        self._written += written

    def close(self) -> None:
        """Flush the buffer and reject further :meth:`accept` calls."""
        if self._closed:
            return
        self.flush()
        self._closed = True

    def __enter__(self) -> "StoreSink":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StoreSink(device_id={self._device_id!r}, epsilon={self._epsilon!r}, "
            f"written={self._written}, pending={self.pending}, "
            f"closed={self._closed})"
        )
