"""Set-up and the timed raw log -> StreamHub -> StoreSink -> store ingest."""

from __future__ import annotations

import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.store import Store, open_store
from repro.streaming import HubStats, StreamHub

from workloads import Workload


def no_span(name: str) -> nullcontext:
    return nullcontext()


def open_pipeline(
    workload: Workload, root: Path, *, wrap: Callable | None = None
) -> tuple[Store, StreamHub, float]:
    """``open_store`` plus ``StreamHub`` construction: what ``setup_s`` times.

    Returns the store, the hub and the seconds the hub construction alone
    took (worker spawn and handshake on node).  ``wrap`` wraps the sink
    factories, which is how the traced run puts a timing proxy in front of
    every ``StoreSink``.
    """
    store = open_store(root)
    finest = store.sink_factory(epsilon=workload.ladder[0])
    levels = (
        store.pyramid_sink_factory(workload.ladder) if len(workload.ladder) > 1 else None
    )
    if wrap is not None:
        finest = wrap(finest)
        levels = None if levels is None else wrap(levels)
    started = time.perf_counter()
    hub = StreamHub(
        algorithm=workload.algorithm,
        epsilons=workload.ladder,
        shards=workload.shards,
        sink_factory=finest,
        level_sink_factory=levels,
        on_error="collect",
        backend=workload.backend,
        workers=workload.workers,
    )
    return store, hub, time.perf_counter() - started


@dataclass
class Ingest:
    seconds: float
    """From the first ``push_many`` until ``hub.close()`` returned, less the
    untimed ``stats()`` read just before the close."""
    stats: HubStats
    errors: list
    checkpoint: dict
    checkpoint_bytes: int


def ingest(hub: StreamHub, log: list, span: Callable = no_span) -> Ingest:
    """Replay ``log`` closed-loop from one client, checkpointing halfway."""
    half = len(log) // 2
    started = time.perf_counter()
    with span("hub.push_many"):
        hub.push_many(log[:half])
    with span("hub.checkpoint"):
        payload = hub.checkpoint()
    with span("checkpoint.encode"):
        encoded = json.dumps(payload, sort_keys=True, allow_nan=False)
    with span("hub.push_many"):
        hub.push_many(log[half:])
    with span("hub.finish_all"):
        hub.finish_all()
    paused = time.perf_counter()
    # Counters must be read before close() stops the shard workers.
    with span("hub.stats"):
        stats = hub.stats()
    resumed = time.perf_counter()
    with span("hub.close"):
        hub.close()
    ended = time.perf_counter()
    return Ingest(
        seconds=(paused - started) + (ended - resumed),
        stats=stats,
        errors=list(hub.errors),
        checkpoint=payload,
        checkpoint_bytes=len(encoded),
    )


def replay(workload: Workload, log: list, root: Path) -> Ingest:
    """One whole replay into a fresh store that is removed afterwards."""
    store, hub, _ = open_pipeline(workload, root)
    run = ingest(hub, log)
    store.close()
    shutil.rmtree(root)
    return run


def warm_up(workload: Workload, log: list, root: Path) -> None:
    """An untimed replay of the log's first 2%: lazy imports, first-call
    set-up and the allocator settle before anything is measured."""
    replay(workload, log[: max(2, len(log) // 50)], root)


def failed_points(run: Ingest, points_by_device: dict) -> int:
    """Input points whose segments did not reliably reach the store.

    Every device with a recorded error counts with all its points: a
    quarantined device (its dropped points included) and a device whose
    sink was detached alike.
    """
    return sum(len(points_by_device[d]) for d in {error.device_id for error in run.errors})


def disk_usage(root: Path) -> tuple[int, int]:
    """``(files, bytes)`` under a closed store's directory."""
    sizes = [path.stat().st_size for path in root.rglob("*") if path.is_file()]
    return len(sizes), sum(sizes)
