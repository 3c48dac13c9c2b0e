"""The traced run: per-layer metrics from spans around each layer's public calls.

End-to-end metrics never come from here.  This run replays the log once
untraced and once traced (their throughput difference is the tracing
overhead), then times each layer on its own: a finest-rung-only replay for
the pyramid cascade, a checkpoint restore, per-device registration round
trips, the bare simplifier, the wire codec on the run's own batch shapes,
the read-only store reopen and every query kind.  README.md maps each
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import traceback
from pathlib import Path

from repro.store import open_store
from repro.streaming import (
    POINT_BATCH_FORMATS,
    StreamHub,
    decode_frame,
    encode_frame,
    group_records,
    restore_hub,
    shard_index,
)
from repro.streaming.hub import DEFAULT_BLOCK_SIZE

from checks import check_store, direct_segments
from ingest import disk_usage, failed_points, ingest, open_pipeline, replay, warm_up
from measure import percentile
from queries import KINDS, MIN_QUERIES, TINY_MIN_QUERIES, QueryMaker, Reference, execute
from tracing import Tracer
from workloads import Workload, summarize

LEVELS = 4
"""Pyramid levels reported (``segments_l0`` .. ``segments_l3``); rungs a
workload does not have read 0."""
PROBES = 200
"""Queries per kind that the workload's mix lacks, so every kind has a p50."""
TINY_PROBES = 20

UNITS = {
    "core.simplify_pps": "points/s",
    "core.segments": "count",
    "streaming.hub.push_many_s": "s",
    "streaming.hub.finish_all_s": "s",
    "streaming.hub.close_s": "s",
    "streaming.hub.points_pushed": "count",
    "streaming.hub.dropped_points": "count",
    "streaming.hub.failed_devices": "count",
    "streaming.hub.sink_failures": "count",
    "streaming.hub.max_lag": "count",
    **{f"streaming.pyramid.segments_l{level}": "count" for level in range(LEVELS)},
    "streaming.pyramid.cascade_s": "s",
    "streaming.wire.bytes_per_point": "B/point",
    "streaming.wire.batches": "count",
    "streaming.wire.frames_decoded": "count",
    "streaming.wire.encode_us_per_batch": "us",
    "streaming.wire.decode_us_per_batch": "us",
    "exec.node.start_s": "s",
    "exec.node.register_rtt_p50_ms": "ms",
    "exec.node.register_rtt_p90_ms": "ms",
    "streaming.checkpoint.snapshot_s": "s",
    "streaming.checkpoint.bytes": "B",
    "streaming.checkpoint.restore_s": "s",
    "store.append_s": "s",
    "store.segments_per_s": "segments/s",
    "store.files_written": "count",
    "store.bytes_per_segment": "B/segment",
    "store.partitions": "count",
    "store.open_s": "s",
    **{f"store.query.{kind}_p50_ms": "ms" for kind in KINDS},
    "store.query.scan_fraction": "fraction",
    "store.query.rows_per_match": "ratio",
    "trace.ingest_wall_s": "s",
    "trace.self_time_coverage": "fraction",
    "trace.traced_ingest_pps": "points/s",
    "trace.untraced_ingest_pps": "points/s",
    "trace.overhead_fraction": "fraction",
}

INGEST_LAYERS = (
    "hub.push_many",
    "hub.checkpoint",
    "checkpoint.encode",
    "hub.finish_all",
    "hub.close",
    "store.sink",
)
"""Spans whose self times make up the timed ingest (``hub.stats`` is the
untimed counter read, and the root's own gaps are the benchmark's loop)."""


def ship_batches(log: list, shards: int, actors: int) -> list[list]:
    """The ``(shard, device, point)`` batches ``push_many`` cuts for each worker."""
    buffers: list[list] = [[] for _ in range(actors)]
    batches = []
    for device_id, point in log:
        shard = shard_index(device_id, shards)
        buffer = buffers[shard % actors]
        buffer.append((shard, device_id, point))
        if len(buffer) >= DEFAULT_BLOCK_SIZE:
            batches.append(list(buffer))
            buffer.clear()
    batches.extend(buffer for buffer in buffers if buffer)
    return batches


def trace_layers(
    workload: Workload, log: list, seed: int, work: Path, tracer: Tracer, tiny: bool
) -> dict:
    summary = summarize(log)
    points = len(log)
    warm_up(workload, log, work / "warm-up")
    untraced = replay(workload, log, work / "untraced")

    root = work / "traced"
    store, hub, start_s = open_pipeline(workload, root, wrap=tracer.timed_sinks)
    backend, workers = hub.backend, hub.n_workers
    with tracer.span("ingest"):
        traced = ingest(hub, log, tracer.span)
    store.close()
    ingest_tree = tracer.subtree(tracer.index_of("ingest"))
    layer_self = sum(tracer.self_time(name, ingest_tree) for name in INGEST_LAYERS)

    finest_only = replay(
        dataclasses.replace(workload, ladder=workload.ladder[:1]), log, work / "finest"
    )

    with tracer.span("restore_hub"):
        restored = restore_hub(
            traced.checkpoint, backend=workload.backend, workers=workload.workers
        )
    restored.close()

    bare = StreamHub(
        algorithm=workload.algorithm,
        epsilons=workload.ladder,
        shards=workload.shards,
        backend=workload.backend,
        workers=workload.workers,
    )
    for device in summary.devices:
        with tracer.span("hub.register_device"):
            bare.register_device(device)
    bare.close()

    core_segments = 0
    for device in summary.devices:
        with tracer.span("core.stream"):
            core_segments += len(
                direct_segments(
                    workload.algorithm,
                    workload.ladder[0],
                    summary.points_by_device[device],
                )
            )

    frame_name = POINT_BATCH_FORMATS["columnar"]
    for batch in ship_batches(log, workload.shards, workers):
        with tracer.span("wire.encode"):
            frame = encode_frame(frame_name, group_records(batch))
        with tracer.span("wire.decode"):
            decode_frame(frame)

    files, store_bytes = disk_usage(root)
    with tracer.span("store.open"):
        reader = open_store(root, create=False)
    problems, _ = check_store(workload, summary, reader)

    maker = QueryMaker(summary, workload.ladder, seed)
    reference = Reference(reader)
    mixed = maker.kinds(workload.query_mix)
    in_mix = {kind for kind, _ in workload.query_mix}
    plan = [next(mixed) for _ in range(TINY_MIN_QUERIES if tiny else MIN_QUERIES)]
    for kind in KINDS:
        if kind not in in_mix:
            plan.extend([kind] * (TINY_PROBES if tiny else PROBES))
    scanned = total = rows = matched = mismatches = query_failures = 0
    for kind in plan:
        query = maker.make(kind)
        try:
            with tracer.span(f"store.query.{kind}"):
                result = execute(reader, query)
        except Exception:  # noqa: BLE001 - a raising query is counted, not fatal
            query_failures += 1
            traceback.print_exc(file=sys.stderr)
            continue
        scanned += result.partitions_scanned
        total += result.partitions_total
        if query.width is None:
            rows += result.segments_scanned
            matched += len(result)
        if not reference.agrees(query, result):
            mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} queries disagree with their full-scan answer")
    if query_failures:
        problems.append(f"{query_failures} queries raised")

    stats = traced.stats
    by_level = stats.segments_by_level or [stats.segments_emitted]
    append_s = sum(tracer.durations("store.sink"))
    rtts = tracer.durations("hub.register_device")
    ingest_wall = tracer.durations("ingest")[0]
    metrics = {
        "core.simplify_pps": points / sum(tracer.durations("core.stream")),
        "core.segments": core_segments,
        "streaming.hub.push_many_s": tracer.self_time("hub.push_many", ingest_tree),
        "streaming.hub.finish_all_s": tracer.self_time("hub.finish_all", ingest_tree),
        "streaming.hub.close_s": tracer.self_time("hub.close", ingest_tree),
        "streaming.hub.points_pushed": stats.points_pushed,
        "streaming.hub.dropped_points": stats.dropped_points,
        "streaming.hub.failed_devices": stats.failed,
        "streaming.hub.sink_failures": stats.sink_failures,
        "streaming.hub.max_lag": stats.max_lag,
        **{
            f"streaming.pyramid.segments_l{level}": (
                by_level[level] if level < len(by_level) else 0
            )
            for level in range(LEVELS)
        },
        "streaming.pyramid.cascade_s": untraced.seconds - finest_only.seconds,
        "streaming.wire.bytes_per_point": stats.bytes_shipped / points,
        "streaming.wire.batches": stats.batches_shipped,
        "streaming.wire.frames_decoded": stats.frames_decoded,
        "streaming.wire.encode_us_per_batch": (
            statistics.fmean(tracer.durations("wire.encode")) * 1e6
        ),
        "streaming.wire.decode_us_per_batch": (
            statistics.fmean(tracer.durations("wire.decode")) * 1e6
        ),
        "exec.node.start_s": start_s,
        "exec.node.register_rtt_p50_ms": statistics.median(rtts) * 1e3,
        "exec.node.register_rtt_p90_ms": percentile(rtts, 0.90) * 1e3,
        "streaming.checkpoint.snapshot_s": (
            tracer.self_time("hub.checkpoint", ingest_tree)
            + tracer.self_time("checkpoint.encode", ingest_tree)
        ),
        "streaming.checkpoint.bytes": traced.checkpoint_bytes,
        "streaming.checkpoint.restore_s": tracer.durations("restore_hub")[0],
        "store.append_s": append_s,
        "store.segments_per_s": sum(by_level) / append_s,
        "store.files_written": files,
        "store.bytes_per_segment": store_bytes / reader.n_segments,
        "store.partitions": reader.n_partitions,
        "store.open_s": tracer.durations("store.open")[0],
        **{
            f"store.query.{kind}_p50_ms": statistics.median(
                tracer.durations(f"store.query.{kind}")
            ) * 1e3
            for kind in KINDS
        },
        "store.query.scan_fraction": scanned / max(1, total),
        "store.query.rows_per_match": rows / max(1, matched),
        "trace.ingest_wall_s": ingest_wall,
        "trace.self_time_coverage": layer_self / traced.seconds,
        "trace.traced_ingest_pps": points / traced.seconds,
        "trace.untraced_ingest_pps": points / untraced.seconds,
        "trace.overhead_fraction": 1.0 - untraced.seconds / traced.seconds,
    }
    failed = query_failures + sum(
        failed_points(run, summary.points_by_device) for run in (untraced, traced, finest_only)
    )
    return {
        "metrics": metrics,
        "units": UNITS,
        "samples": {},
        "problems": problems,
        "attempted": 3 * points + len(plan),
        "failed": failed,
        "backend": backend,
        "workers": workers,
    }
