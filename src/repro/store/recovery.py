"""Torn-tail recovery: scan, account, repair.

A crash mid-``append`` leaves a *torn tail* — a final chunk whose header
or column payload never fully reached the device log.  Zone maps live in
the chunk headers, so the lost chunk takes its zone-map contribution with
it: the rebuilt zone maps describe exactly the committed chunks.

:class:`repro.store.Store` opens with one header walk per device log
(:func:`repro.store.layout.scan_device_log`) and repairs damaged logs by
truncating them to the committed chunk prefix.  Physical truncation
requires the single-writer lock; when the store opens without it (a pure
reader racing a live writer), the repair is *logical* — reads only ever
touch the extents of committed chunks — and the physical truncation is
deferred until the lock is acquired.  Truncation always follows a walk
taken *under* the lock: a tail that looked torn before the acquire may be
the then-live writer's in-flight chunk, committed in the meantime, so
stale offsets are never trusted.  Either way, every query observes
exactly the fully-committed chunks, never a torn byte.

This module holds the repair step and the accounting types the store
surfaces (:attr:`repro.store.Store.recovery`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..exceptions import StoreError
from .layout import DeviceLogScan

__all__ = ["LogRepair", "RecoveryReport", "repair_log"]


@dataclass(frozen=True, slots=True)
class LogRepair:
    """Accounting for one torn device log handled by the recovery scan."""

    device_id: str
    reason: str
    """Why the tail was rejected (``truncated chunk header``/``payload``,
    ``bad chunk magic``, ``corrupt chunk header``/``payload``)."""
    valid_bytes: int
    """Length of the committed chunk prefix the log was clamped to."""
    dropped_bytes: int
    """Torn tail length discarded (logically or physically)."""
    segments_kept: int
    """Committed segments surviving in the prefix."""
    truncated: bool
    """True when the log was physically truncated; False when the repair
    is logical (reads stay within committed extents until the writer lock
    allows truncation)."""

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (used by the CLI)."""
        return {
            "device": self.device_id,
            "reason": self.reason,
            "valid_bytes": self.valid_bytes,
            "dropped_bytes": self.dropped_bytes,
            "segments_kept": self.segments_kept,
            "truncated": self.truncated,
        }


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What the open-time recovery scan found and did."""

    logs_scanned: int
    repairs: tuple[LogRepair, ...]

    @property
    def damaged(self) -> int:
        """Number of device logs that carried a torn tail."""
        return len(self.repairs)

    @property
    def dropped_bytes(self) -> int:
        """Total torn bytes discarded across all repairs."""
        return sum(repair.dropped_bytes for repair in self.repairs)

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (used by the CLI)."""
        return {
            "logs_scanned": self.logs_scanned,
            "damaged": self.damaged,
            "dropped_bytes": self.dropped_bytes,
            "repairs": [repair.as_dict() for repair in self.repairs],
        }


def repair_log(device_id: str, scan: DeviceLogScan, *, truncate: bool) -> LogRepair:
    """Repair one damaged device log; returns the accounting record.

    With ``truncate=True`` the log is physically cut back to the
    committed prefix (the caller must hold the store's writer lock);
    otherwise the repair is logical.

    Raises
    ------
    StoreError
        When ``scan`` reports no damage, or the truncation fails.
    """
    if scan.torn is None:
        raise StoreError(f"log of device {device_id!r} is not damaged; nothing to repair")
    if truncate:
        try:
            os.truncate(scan.path, scan.valid_bytes)
        except OSError as error:
            raise StoreError(
                f"cannot truncate the torn log of device {device_id!r} to byte "
                f"{scan.valid_bytes}: {error}"
            ) from error
    return LogRepair(
        device_id=device_id,
        reason=scan.torn.reason,
        valid_bytes=scan.valid_bytes,
        dropped_bytes=scan.total_bytes - scan.valid_bytes,
        segments_kept=scan.segments,
        truncated=truncate,
    )
