"""Persistent, queryable segment store with zone-map data skipping.

The store is the read-heavy half of the pipeline: simplified segments
flow in live through :class:`StoreSink` (one per device, via
``StreamHub`` / ``run_many`` sink factories) or in bulk through
:meth:`Store.append`, land in an append-only columnar log partitioned by
``(device, time-bucket)`` (one self-describing log file per device),
and come back out through one typed query surface — :class:`QuerySpec`
in, :class:`QueryResult` out — that prunes partitions with exact
per-partition zone maps before reading a single byte of data.

The store is crash-proof and single-writer-enforced: opening runs a
torn-tail recovery scan (:mod:`repro.store.recovery`), writers hold an
``O_EXCL`` lock file (:mod:`repro.store.locking`), partitions compact to
single-chunk form with byte-identical query results
(:mod:`repro.store.compact`), and fully-covered window aggregates are
answered from the zone maps alone.

See :mod:`repro.store.layout` for the on-disk format (versioned,
deterministic bytes) and :mod:`repro.store.store` for the pruning
soundness argument.
"""

from .compact import CompactionReport, PartitionCompaction
from .layout import STORE_FORMAT, PartitionKey, TornChunkError, ZoneMap
from .locking import StoreLock
from .query import (
    AggregateResult,
    QueryResult,
    QuerySpec,
    StoredSegment,
    WindowAggregate,
)
from .recovery import LogRepair, RecoveryReport
from .sink import StoreSink
from .store import DEFAULT_TIME_BUCKET, Store, open_store

__all__ = [
    "AggregateResult",
    "CompactionReport",
    "DEFAULT_TIME_BUCKET",
    "LogRepair",
    "PartitionCompaction",
    "PartitionKey",
    "QueryResult",
    "QuerySpec",
    "RecoveryReport",
    "STORE_FORMAT",
    "Store",
    "StoreLock",
    "StoreSink",
    "StoredSegment",
    "TornChunkError",
    "WindowAggregate",
    "ZoneMap",
    "open_store",
]
