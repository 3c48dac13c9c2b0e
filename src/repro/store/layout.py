"""On-disk layout of the segment store: manifest, device logs, chunks.

A store is a directory tree::

    store-root/
      MANIFEST.json            {"format": 2, "kind": "segment-store",
                                "time_bucket": 3600.0}
      devices/
        d-<encoded-device>.seg one append-only, self-describing log per device

Partitioning is logical, by ``(device, time bucket)``: a segment belongs
to the bucket ``floor(segment.start.t / time_bucket)`` of its device.
Every :meth:`repro.store.Store.append` call adds one *chunk* per touched
bucket to the device's log, all in a single ``write()``.  A chunk holds
its segments column by column (start/end coordinates, index ranges,
patch flags, epsilon), so a reader materialises contiguous float64 arrays
per column instead of parsing rows.  Chunks are little-endian and fully
determined by their payload: writing the same segments always produces
the same bytes (the store sits inside the RPA003 determinism scope).

Each chunk header carries the chunk's zone map — its bucket, the exact
time range and bounding box of its segments, its point count and its
summed segment length — next to the segment count.  The epsilon set comes
from the per-row epsilon column, which lets compaction fold chunks
appended under different bounds into one without losing provenance.  A
partition's zone map is the fold of its chunks' headers in log order, so
zone maps are rebuilt on open from committed chunks alone and are always
*exact*: there is no second file to keep in step with the data.

A crash mid-append can leave a *torn tail*: a final chunk whose header or
column payload never fully reached the disk.  :func:`scan_device_log`
walks the chunk headers without decoding payloads and stops at the first
torn chunk, reporting it as a :class:`TornChunkError` that carries the
byte offset where the committed prefix ends; recovery truncates there.

Device log names are percent-encoded and prefixed ``d-`` so no device id
can collide with a path component like ``..``; bucket indices may be
negative (timestamps below zero).
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence
from urllib.parse import quote, unquote

import numpy as np

from ..exceptions import StoreError
from ..geometry.point import Point
from ..trajectory.piecewise import SegmentRecord

__all__ = [
    "CHUNK_VERSION",
    "LOCK_NAME",
    "MANIFEST_NAME",
    "STORE_FORMAT",
    "STORE_KIND",
    "ChunkInfo",
    "DeviceLogScan",
    "PartitionKey",
    "SegmentColumns",
    "TornChunkError",
    "ZoneMap",
    "bucket_of",
    "chunk_matches",
    "chunk_size",
    "decode_chunk",
    "decode_chunks",
    "decode_device_name",
    "device_log_name",
    "device_of_log_name",
    "encode_chunk",
    "encode_chunk_rows",
    "encode_device_name",
    "load_manifest",
    "scan_device_log",
    "write_manifest",
]

STORE_FORMAT = 2
"""Version stamp of the store layout, bumped on incompatible changes."""

STORE_KIND = "segment-store"
"""Manifest discriminator of a segment-store directory."""

MANIFEST_NAME = "MANIFEST.json"
DEVICES_DIR = "devices"
LOG_SUFFIX = ".seg"

LOCK_NAME = "LOCK"
"""File name of the store's single-writer lock (see
:mod:`repro.store.locking`)."""

CHUNK_VERSION = 2
"""Version stamp of the columnar chunk encoding."""

_MAGIC = b"RSEG"
# magic, chunk version, segment count, bucket, t/x/y min/max, points,
# total length.
_HEADER = struct.Struct("<4sIIq6dqd")
_COLUMNS_BEFORE_EPSILON = 6 * 8 + 4 * 8 + 1
_ROW_BYTES = _COLUMNS_BEFORE_EPSILON + 8

_DEVICE_PREFIX = "d-"
_FLAG_PATCHED_START = 1
_FLAG_PATCHED_END = 2


# --------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------- #
def write_manifest(root: Path, *, time_bucket: float) -> None:
    """Write the store manifest atomically (temp file + rename)."""
    payload = {
        "format": STORE_FORMAT,
        "kind": STORE_KIND,
        "time_bucket": time_bucket,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    target = root / MANIFEST_NAME
    temporary = target.with_name(target.name + ".tmp")
    temporary.write_text(text)
    temporary.replace(target)


def load_manifest(root: Path) -> dict[str, object]:
    """Load and validate the manifest of an existing store directory.

    Raises
    ------
    StoreError
        When the manifest is unreadable, not valid JSON, not a
        segment-store manifest, or of an incompatible format version.
    """
    path = root / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text())
    except OSError as error:
        raise StoreError(f"cannot read store manifest {str(path)!r}: {error}") from error
    except ValueError as error:
        raise StoreError(
            f"store manifest {str(path)!r} is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict) or payload.get("kind") != STORE_KIND:
        raise StoreError(
            f"{str(root)!r} is not a segment store (manifest kind "
            f"{payload.get('kind')!r})" if isinstance(payload, dict)
            else f"store manifest {str(path)!r} must be a JSON object"
        )
    if payload.get("format") != STORE_FORMAT:
        raise StoreError(
            f"unsupported store format {payload.get('format')!r}; "
            f"this build reads format {STORE_FORMAT}"
        )
    try:
        time_bucket = float(payload["time_bucket"])  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed store manifest {str(path)!r}: {error!r}") from error
    if not (math.isfinite(time_bucket) and time_bucket > 0.0):
        raise StoreError(
            f"store manifest {str(path)!r} has invalid time_bucket {time_bucket!r}"
        )
    return payload


# --------------------------------------------------------------------- #
# Partition and device log naming
# --------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True, order=True)
class PartitionKey:
    """Identity of one store partition: ``(device, time bucket)``."""

    device_id: str
    bucket: int


def bucket_of(t: float, time_bucket: float) -> int:
    """Time bucket index a segment starting at ``t`` belongs to.

    Computed with float floor division rather than ``floor(t /
    time_bucket)``: the plain quotient can underflow to ``-0.0`` for tiny
    negative ``t`` (e.g. ``-5e-324 / 100.0``), which would round a
    below-zero timestamp *up* into bucket 0 and break the canonical
    (device, bucket, append) scan order.
    """
    return int(t // time_bucket)


def encode_device_name(device_id: str) -> str:
    """Filesystem-safe name of a device id (reversible)."""
    return _DEVICE_PREFIX + quote(device_id, safe="")


def decode_device_name(name: str) -> str:
    """Inverse of :func:`encode_device_name`.

    Raises
    ------
    StoreError
        When ``name`` is not an encoded device name.
    """
    if not name.startswith(_DEVICE_PREFIX):
        raise StoreError(f"not an encoded device name: {name!r}")
    return unquote(name[len(_DEVICE_PREFIX):])


def device_log_name(device_id: str) -> str:
    """File name of a device's segment log under ``devices/``."""
    return encode_device_name(device_id) + LOG_SUFFIX


def device_of_log_name(name: str) -> str | None:
    """Device id of a ``d-<encoded>.seg`` file name (None when not one)."""
    if not (name.startswith(_DEVICE_PREFIX) and name.endswith(LOG_SUFFIX)):
        return None
    return decode_device_name(name[: -len(LOG_SUFFIX)])


# --------------------------------------------------------------------- #
# Zone maps
# --------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class ZoneMap:
    """Pruning metadata of one partition (or one chunk).

    The bounds are exact: every segment in the partition lies inside
    ``[t_min, t_max]`` × ``[x_min, x_max]`` × ``[y_min, y_max]`` and the
    extremes are attained, every listed epsilon is carried by some row.
    A query may skip the partition whenever its predicate cannot
    intersect these bounds.  ``points`` and ``total_length`` are the
    partition-level aggregates (total stored point count and summed
    segment length) that let a window aggregate fully covering the
    partition be answered from the zone map alone.
    """

    t_min: float
    t_max: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    segments: int
    chunks: int
    epsilons: tuple[float, ...]
    points: int
    total_length: float

    def merge(self, other: "ZoneMap") -> "ZoneMap":
        """Union of two zone maps; ``other`` is the later chunk.

        Folding chunk zone maps in log order is what both the writer and
        the open-time header walk do, so their ``total_length`` sums
        agree bit for bit.
        """
        return ZoneMap(
            t_min=min(self.t_min, other.t_min),
            t_max=max(self.t_max, other.t_max),
            x_min=min(self.x_min, other.x_min),
            x_max=max(self.x_max, other.x_max),
            y_min=min(self.y_min, other.y_min),
            y_max=max(self.y_max, other.y_max),
            segments=self.segments + other.segments,
            chunks=self.chunks + other.chunks,
            epsilons=tuple(sorted(set(self.epsilons) | set(other.epsilons))),
            points=self.points + other.points,
            total_length=self.total_length + other.total_length,
        )

    # ------------------------------------------------------------------ #
    # Pruning predicates (True = the partition *may* contain matches)
    # ------------------------------------------------------------------ #
    def may_intersect_window(self, window: tuple[float, float]) -> bool:
        """Whether any contained segment's time span can meet ``window``."""
        t0, t1 = window
        return self.t_min <= t1 and self.t_max >= t0

    def may_intersect_bbox(self, bbox: tuple[float, float, float, float]) -> bool:
        """Whether any contained segment's bounding box can meet ``bbox``."""
        x_min, y_min, x_max, y_max = bbox
        return (
            self.x_min <= x_max
            and self.x_max >= x_min
            and self.y_min <= y_max
            and self.y_max >= y_min
        )

    def may_contain_epsilon(self, epsilon: float) -> bool:
        """Whether any contained segment was produced under ``epsilon``."""
        return epsilon in self.epsilons


# --------------------------------------------------------------------- #
# Columnar chunk codec
# --------------------------------------------------------------------- #
class TornChunkError(StoreError):
    """A chunk whose bytes never fully reached the disk (crash mid-append).

    ``offset`` is the byte offset where the last fully-committed chunk
    ends — everything before it decodes cleanly, everything from it on is
    the torn (or corrupt) tail.  Recovery truncates the log to ``offset``.

    The keyword parameters carry defaults so ``cls(message)`` revival
    across process boundaries works (RPA005); a revived instance keeps
    its message but not the structured offset.
    """

    def __init__(
        self, message: str, *, offset: int = 0, reason: str = "torn chunk"
    ) -> None:
        super().__init__(message)
        self.offset = offset
        self.reason = reason


def chunk_size(rows: int) -> int:
    """Byte length of a whole chunk (header included) holding ``rows``."""
    return _HEADER.size + rows * _ROW_BYTES


class SegmentColumns:
    """The columns of a run of segments, built in one pass and sliced into
    chunks — so a multi-bucket append pays the per-row Python work once,
    not once per column per chunk."""

    __slots__ = ("coords", "indices", "flags", "epsilons", "lengths")

    def __init__(
        self, records: Sequence[SegmentRecord], epsilons: Sequence[float]
    ) -> None:
        n = len(records)
        self.coords = np.array(
            [(s.start.x, s.start.y, s.start.t, s.end.x, s.end.y, s.end.t) for s in records],
            dtype="<f8",
        ).reshape(n, 6)
        self.indices = np.array(
            [(s.first_index, s.last_index, s.point_count, s.covered_last_index) for s in records],
            dtype="<i8",
        ).reshape(n, 4)
        self.flags = np.array(
            [
                (_FLAG_PATCHED_START if s.patched_start else 0)
                | (_FLAG_PATCHED_END if s.patched_end else 0)
                for s in records
            ],
            dtype="u1",
        )
        self.epsilons = np.array(epsilons, dtype="<f8").reshape(n)
        self.lengths = [s.length for s in records]

    def first_non_finite(self) -> int | None:
        """Index of the first segment with a non-finite coordinate."""
        finite = np.isfinite(self.coords).all(axis=1)
        return None if finite.all() else int(np.argmin(finite))

    def chunk(self, start: int, stop: int, bucket: int) -> tuple[bytes, ZoneMap]:
        """Encode segments ``[start, stop)`` as one chunk of ``bucket``.

        Returns the chunk bytes and the chunk's zone map — exactly the
        values its header carries.  Layout (all little-endian): the header
        (magic, version, count, bucket, t/x/y min/max, points, total
        length), six float64 columns (start x/y/t, end x/y/t), four int64
        columns (first, last, point count, covered last index), one uint8
        flag column (bit 0 = patched start, bit 1 = patched end) and a
        float64 epsilon column.
        """
        n = stop - start
        if n <= 0:
            raise StoreError("cannot encode an empty chunk")
        coords = self.coords[start:stop]
        low = coords.min(axis=0).tolist()
        high = coords.max(axis=0).tolist()
        eps = self.epsilons[start:stop]
        zonemap = ZoneMap(
            t_min=min(low[2], low[5]),
            t_max=max(high[2], high[5]),
            x_min=min(low[0], low[3]),
            x_max=max(high[0], high[3]),
            y_min=min(low[1], low[4]),
            y_max=max(high[1], high[4]),
            segments=n,
            chunks=1,
            epsilons=tuple(sorted(set(eps.tolist()))),
            points=int(self.indices[start:stop, 2].sum()),
            total_length=sum(self.lengths[start:stop]),
        )
        header = _HEADER.pack(
            _MAGIC, CHUNK_VERSION, n, bucket,
            zonemap.t_min, zonemap.t_max, zonemap.x_min, zonemap.x_max,
            zonemap.y_min, zonemap.y_max, zonemap.points, zonemap.total_length,
        )
        # Transposed row blocks serialise column after column.
        data = b"".join((
            header,
            coords.T.tobytes(),
            self.indices[start:stop].T.tobytes(),
            self.flags[start:stop].tobytes(),
            eps.tobytes(),
        ))
        return data, zonemap


def encode_chunk_rows(
    rows: Sequence[tuple[SegmentRecord, float]], bucket: int
) -> tuple[bytes, ZoneMap]:
    """Encode ``(record, epsilon)`` rows of one bucket as one chunk; see
    :meth:`SegmentColumns.chunk` for the layout."""
    columns = SegmentColumns([record for record, _ in rows], [eps for _, eps in rows])
    return columns.chunk(0, len(rows), bucket)


def encode_chunk(
    segments: Sequence[SegmentRecord], epsilon: float, bucket: int
) -> tuple[bytes, ZoneMap]:
    """Encode one append batch (uniform epsilon, one bucket) as a chunk."""
    return SegmentColumns(segments, [epsilon] * len(segments)).chunk(0, len(segments), bucket)


@dataclass(frozen=True, slots=True)
class ChunkInfo:
    """One committed chunk found by the header walk of a device log."""

    offset: int
    rows: int
    bucket: int
    zonemap: ZoneMap

    @property
    def end(self) -> int:
        """Byte offset just past the chunk."""
        return self.offset + chunk_size(self.rows)


@dataclass(frozen=True, slots=True)
class DeviceLogScan:
    """Result of a header-only walk over one device log.

    ``chunks`` lists the committed chunk prefix in log order;
    ``valid_bytes`` is its length and equals ``total_bytes`` when the log
    is intact.  ``torn`` carries the :class:`TornChunkError` describing
    the tail when the log is damaged.
    """

    path: Path
    total_bytes: int
    chunks: tuple[ChunkInfo, ...]
    torn: TornChunkError | None

    @property
    def valid_bytes(self) -> int:
        """Length of the committed chunk prefix."""
        return self.chunks[-1].end if self.chunks else 0

    @property
    def segments(self) -> int:
        """Committed segments in the log."""
        return sum(chunk.rows for chunk in self.chunks)

    @property
    def damaged(self) -> bool:
        """Whether the log carries a torn tail needing repair."""
        return self.torn is not None


def _torn(source: str, offset: int, reason: str) -> TornChunkError:
    return TornChunkError(f"{reason} in {source} at byte {offset}", offset=offset, reason=reason)


def _read_chunk_info(
    handle: BinaryIO, offset: int, total: int, source: str
) -> ChunkInfo:
    """Validate the chunk header at ``offset`` and read its epsilon column.

    ``handle`` must be positioned at ``offset``; it is left wherever the
    epsilon column read ends.  Raises :class:`TornChunkError` (offset =
    the chunk's start, i.e. the end of the committed prefix) on a
    truncated, garbled or implausible header or a truncated payload, and a
    plain :class:`StoreError` on an unsupported chunk version — a version
    from the future is valid data this build must not repair away.
    """
    header = handle.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise _torn(source, offset, "truncated chunk header")
    (magic, version, n, bucket, t_min, t_max, x_min, x_max, y_min, y_max,
     points, total_length) = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise _torn(source, offset, "bad chunk magic")
    if version != CHUNK_VERSION:
        raise StoreError(
            f"unsupported chunk version {version} in {source}; "
            f"this build reads version {CHUNK_VERSION}"
        )
    bounds = (t_min, t_max, x_min, x_max, y_min, y_max)
    # Finite coordinates can still sum to an infinite length, never to NaN.
    if not (
        n >= 1
        and points >= 0
        and total_length >= 0.0
        and all(math.isfinite(value) for value in bounds)
        and t_min <= t_max
        and x_min <= x_max
        and y_min <= y_max
    ):
        raise _torn(source, offset, "corrupt chunk header")
    end = offset + chunk_size(n)
    if end > total:
        raise _torn(source, offset, "truncated chunk payload")
    handle.seek(offset + _HEADER.size + n * _COLUMNS_BEFORE_EPSILON)
    eps = np.frombuffer(handle.read(n * 8), dtype="<f8", count=n)
    epsilons = tuple(sorted(set(eps.tolist())))
    if not all(math.isfinite(value) and value > 0.0 for value in epsilons):
        raise _torn(source, offset, "corrupt chunk payload")
    zonemap = ZoneMap(
        t_min=t_min, t_max=t_max, x_min=x_min, x_max=x_max, y_min=y_min,
        y_max=y_max, segments=n, chunks=1, epsilons=epsilons, points=points,
        total_length=total_length,
    )
    return ChunkInfo(offset=offset, rows=n, bucket=bucket, zonemap=zonemap)


def _walk(handle: BinaryIO, total: int, source: str) -> tuple[list[ChunkInfo], TornChunkError | None]:
    chunks: list[ChunkInfo] = []
    offset = 0
    while offset < total:
        handle.seek(offset)
        try:
            info = _read_chunk_info(handle, offset, total, source)
        except TornChunkError as error:
            return chunks, error
        chunks.append(info)
        offset = info.end
    return chunks, None


def scan_device_log(path: Path) -> DeviceLogScan:
    """Walk a device log's chunk headers without decoding row payloads.

    This is the walk :class:`repro.store.Store` runs on open: it
    validates every chunk header, reads each chunk's zone map (the header
    plus the epsilon column) and locates the torn tail, if any — all
    without materialising a single row.  A missing log scans as empty.

    Raises
    ------
    StoreError
        When the log cannot be read, or a committed-prefix chunk carries
        an unsupported version (future data must not be repaired away).
    """
    source = str(path)
    try:
        with open(path, "rb") as handle:
            total = handle.seek(0, io.SEEK_END)
            chunks, torn = _walk(handle, total, source)
    except FileNotFoundError:
        return DeviceLogScan(path=path, total_bytes=0, chunks=(), torn=None)
    except OSError as error:
        raise StoreError(f"cannot read device log {source!r}: {error}") from error
    return DeviceLogScan(path=path, total_bytes=total, chunks=tuple(chunks), torn=torn)


def chunk_matches(data: bytes, rows: int, bucket: int) -> bool:
    """Whether ``data`` is a whole current-version chunk of ``rows`` rows
    in ``bucket`` — the check a reader makes before decoding an extent."""
    if len(data) != chunk_size(rows):
        return False
    magic, version, n, chunk_bucket = _HEADER.unpack_from(data)[:4]
    return magic == _MAGIC and version == CHUNK_VERSION and n == rows and chunk_bucket == bucket


def decode_chunk(data: bytes, offset: int = 0) -> list[tuple[SegmentRecord, float]]:
    """Decode the chunk at ``offset`` of ``data`` into ``(record, epsilon)``
    rows, in append order.  The header must already be validated."""
    n = _HEADER.unpack_from(data, offset)[2]

    def column(dtype: str, width: int, cursor: int) -> tuple[np.ndarray, int]:
        array = np.frombuffer(data, dtype=dtype, count=n, offset=cursor)
        return array, cursor + n * width

    cursor = offset + _HEADER.size
    start_x, cursor = column("<f8", 8, cursor)
    start_y, cursor = column("<f8", 8, cursor)
    start_t, cursor = column("<f8", 8, cursor)
    end_x, cursor = column("<f8", 8, cursor)
    end_y, cursor = column("<f8", 8, cursor)
    end_t, cursor = column("<f8", 8, cursor)
    first, cursor = column("<i8", 8, cursor)
    last, cursor = column("<i8", 8, cursor)
    count, cursor = column("<i8", 8, cursor)
    covered, cursor = column("<i8", 8, cursor)
    flags, cursor = column("u1", 1, cursor)
    eps, cursor = column("<f8", 8, cursor)

    rows: list[tuple[SegmentRecord, float]] = []
    for i in range(n):
        record = SegmentRecord(
            start=Point(float(start_x[i]), float(start_y[i]), float(start_t[i])),
            end=Point(float(end_x[i]), float(end_y[i]), float(end_t[i])),
            first_index=int(first[i]),
            last_index=int(last[i]),
            point_count=int(count[i]),
            covered_last_index=int(covered[i]),
            patched_start=bool(flags[i] & _FLAG_PATCHED_START),
            patched_end=bool(flags[i] & _FLAG_PATCHED_END),
        )
        rows.append((record, float(eps[i])))
    return rows


def decode_chunks(
    data: bytes, *, source: str = "<bytes>"
) -> Iterator[tuple[int, list[tuple[SegmentRecord, float]]]]:
    """Decode a whole device log into ``(bucket, rows)`` per chunk, in log
    order.

    Raises
    ------
    TornChunkError
        On a torn, garbled or truncated chunk; the error carries the byte
        offset of the committed prefix.
    StoreError
        On an unsupported chunk version.
    """
    chunks, torn = _walk(io.BytesIO(data), len(data), source)
    for info in chunks:
        yield info.bucket, decode_chunk(data, info.offset)
    if torn is not None:
        raise torn
