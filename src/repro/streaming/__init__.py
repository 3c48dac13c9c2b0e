"""Streaming infrastructure around :class:`repro.api.StreamSession`.

The multi-device hub with checkpoint/restore, the epsilon pyramid, segment
sinks, the columnar wire codec and the one-pass accounting wrappers.  A
single stream is opened with ``repro.api.Simplifier(name, epsilon)
.open_stream()``; :class:`BufferedBatchAdapter` (re-exported from
:mod:`repro.api`) is what such a session wraps batch-only algorithms in.
"""

from .checkpoint import (
    load_checkpoint,
    read_point_log,
    restore_hub,
    save_checkpoint,
    write_point_log,
)
from .counting import CountingPointSource, CountingSimplifier
from .hub import (
    DEFAULT_BLOCK_SIZE,
    DeviceError,
    DeviceStream,
    HubShard,
    HubStats,
    StreamHub,
    shard_index,
)
from ..api.adapters import BufferedBatchAdapter
from .pyramid import PyramidSession, validate_epsilon_ladder
from .sinks import (
    CollectingSink,
    CsvSegmentSink,
    SegmentSink,
    StatisticsSink,
    close_sink,
    flush_sink,
)
from .wire import (
    FRAME_TYPES,
    POINT_BATCH_FORMATS,
    FrameType,
    decode_frame,
    encode_frame,
    group_records,
    pack_frame,
    read_frame,
    register_frame,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "FRAME_TYPES",
    "POINT_BATCH_FORMATS",
    "BufferedBatchAdapter",
    "CollectingSink",
    "CountingPointSource",
    "CountingSimplifier",
    "CsvSegmentSink",
    "DeviceError",
    "DeviceStream",
    "FrameType",
    "HubShard",
    "HubStats",
    "PyramidSession",
    "SegmentSink",
    "StatisticsSink",
    "StreamHub",
    "close_sink",
    "decode_frame",
    "encode_frame",
    "flush_sink",
    "group_records",
    "load_checkpoint",
    "pack_frame",
    "read_frame",
    "read_point_log",
    "register_frame",
    "restore_hub",
    "save_checkpoint",
    "shard_index",
    "validate_epsilon_ladder",
    "write_point_log",
]
