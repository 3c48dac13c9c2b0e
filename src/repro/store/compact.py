"""Compaction: many small chunks → one per partition, byte-identical queries.

Every :meth:`repro.store.Store.append` adds one chunk per touched bucket
to the device log, so live ingest (hub sinks flushing small batches)
leaves partitions made of many tiny chunks — each paying a header check
and a read on every scan.  Compaction rewrites a device log with one
chunk per selected partition, holding the same rows in the same
canonical append order, with the epsilon kept per row (the chunk codec
stores it per row precisely so multi-epsilon partitions compact
losslessly).  Partitions below ``min_chunks`` keep their chunk bytes
verbatim.  Query results are byte-identical before and after — the
property tests lock that in.

The rewrite is crash-safe: the new log lands via temp file + atomic
rename, and the zone maps are rebuilt by walking it, so they stay exact.
Another handle that walked the old log notices the swap at its next read
(the chunk headers at its extents no longer match) and re-walks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import InvalidParameterError, StoreError
from .layout import PartitionKey, chunk_matches, chunk_size, decode_chunk, encode_chunk_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .store import Store

__all__ = ["CompactionReport", "PartitionCompaction", "compact_partitions"]


@dataclass(frozen=True, slots=True)
class PartitionCompaction:
    """Accounting for one partition the compactor rewrote."""

    key: PartitionKey
    chunks_before: int
    chunks_after: int
    segments: int
    bytes_before: int
    bytes_after: int

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (used by the CLI)."""
        return {
            "device": self.key.device_id,
            "bucket": self.key.bucket,
            "chunks_before": self.chunks_before,
            "chunks_after": self.chunks_after,
            "segments": self.segments,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }


@dataclass(frozen=True, slots=True)
class CompactionReport:
    """What one :meth:`repro.store.Store.compact` pass did."""

    partitions_considered: int
    compacted: tuple[PartitionCompaction, ...]

    @property
    def partitions_compacted(self) -> int:
        """Partitions rewritten by this pass."""
        return len(self.compacted)

    @property
    def chunks_merged(self) -> int:
        """Total source chunks folded away."""
        return sum(
            item.chunks_before - item.chunks_after for item in self.compacted
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (used by the CLI)."""
        return {
            "partitions_considered": self.partitions_considered,
            "partitions_compacted": self.partitions_compacted,
            "chunks_merged": self.chunks_merged,
            "compacted": [item.as_dict() for item in self.compacted],
        }


def compact_partitions(
    store: "Store", *, device: str | None = None, min_chunks: int = 2
) -> CompactionReport:
    """Compact every (or one device's) partition of ``min_chunks`` or more
    chunks into a single chunk.

    Acquires the store's single-writer lock (flushing any deferred
    torn-tail truncations first).  Each device log holding a selected
    partition is rewritten in bucket order — selected partitions as one
    chunk each, canonical append order and per-row epsilons preserved,
    the others copied verbatim — via temp file + atomic rename, then
    re-walked.

    Raises
    ------
    InvalidParameterError
        On ``min_chunks < 1``.
    StoreError
        When another live writer holds the lock, or on an I/O failure.
    """
    if min_chunks < 1:
        raise InvalidParameterError(f"min_chunks must be >= 1, got {min_chunks!r}")
    considered = 0
    compacted: list[PartitionCompaction] = []
    with store._mutex:
        store._ensure_writer()
        for device_id in sorted(store._logs):
            if device is not None and device_id != device:
                continue
            path = store._log_path(device_id)
            try:
                if path.stat().st_size != store._logs[device_id].size:
                    # Another handle changed the log since this one walked it.
                    store._reload_log(device_id)
                data = path.read_bytes()
            except OSError as error:
                raise StoreError(
                    f"cannot read the log of device {device_id!r}: {error}"
                ) from error
            buckets = sorted(store._logs[device_id].buckets)
            considered += len(buckets)
            parts: list[bytes] = []
            rewritten: list[PartitionCompaction] = []
            for bucket in buckets:
                key = PartitionKey(device_id, bucket)
                extents = store._extents[key]
                chunks: list[bytes] = []
                for offset, rows in extents:
                    chunk = data[offset : offset + chunk_size(rows)]
                    if not chunk_matches(chunk, rows, bucket):
                        raise StoreError(
                            f"the log of device {device_id!r} does not hold "
                            f"partition {key}'s chunk at byte {offset}"
                        )
                    chunks.append(chunk)
                if len(chunks) < min_chunks:
                    parts.extend(chunks)
                    continue
                merged, _ = encode_chunk_rows(
                    [row for chunk in chunks for row in decode_chunk(chunk)], bucket
                )
                parts.append(merged)
                rewritten.append(
                    PartitionCompaction(
                        key=key,
                        chunks_before=len(chunks),
                        chunks_after=1,
                        segments=store._zonemaps[key].segments,
                        bytes_before=sum(len(chunk) for chunk in chunks),
                        bytes_after=len(merged),
                    )
                )
            if not rewritten:
                continue
            temporary = path.with_name(path.name + ".tmp")
            try:
                temporary.write_bytes(b"".join(parts))
                os.replace(temporary, path)
            except OSError as error:
                temporary.unlink(missing_ok=True)
                raise StoreError(
                    f"cannot compact the log of device {device_id!r}: {error}"
                ) from error
            store._reload_log(device_id)
            compacted.extend(rewritten)
    return CompactionReport(
        partitions_considered=considered, compacted=tuple(compacted)
    )
