"""The untraced run: the end-to-end metrics of one workload."""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from repro.store import open_store

from checks import check_store
from ingest import disk_usage, failed_points, ingest, open_pipeline, warm_up
from queries import QueryMaker, Reference, execute
from speed import HostSpeed
from workloads import Workload, summarize

INGEST_SHARE = 0.75
"""Share of ``--seconds`` spent replaying the log; the rest runs queries."""
BLOCK = 20
"""Queries per block: a whole number of shuffled decks of both mixes (5 and
4 kinds), short enough that the host's speed barely changes within one.
Each block's latencies are scaled by the probes on either side of it."""
SPARE_SETUPS = 3
"""Bare set-ups (store opened, hub built and closed) before each replay.
``setup_s`` is the median of these and the replays' own set-ups, sampled
across the whole run."""

UNITS = {
    "ingest_pps": "points/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "compression_ratio": "ratio",
    "store_bytes_per_point": "B/point",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_fraction": "fraction",
}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: ``ceil(share * n)``-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def ms(seconds: list[float], share: float) -> float:
    """Nearest-rank percentile in milliseconds; 0 when no query succeeded
    (the correctness gate reports every query that raised)."""
    return percentile(seconds, share) * 1e3 if seconds else 0.0


def peak_rss_mb() -> float:
    """Own peak resident set plus the largest reaped child's, in MiB.

    Node workers are forked, so their peak includes pages they share with
    this process; getrusage reports what it reports and no more.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(
    workload: Workload, log: list, seed: int, seconds: float, work: Path
) -> dict:
    """The untraced run: every end-to-end metric of one workload.

    Ingest replays and query blocks alternate for the whole run, so both
    kinds of sample are spread over the same stretch of time.  Every timing
    that runs in this thread is scaled to the reference speed by the
    host-speed probes around it (see ``speed.py``), and each metric is a
    median or a percentile over all of the run's samples.  The first
    replay's store is kept and queried; later ones are removed.
    """
    summary = summarize(log)
    maker = QueryMaker(summary, workload.ladder, seed)
    kinds = maker.kinds(workload.query_mix)
    warm_up(workload, log, work / "warm-up")
    speed = HostSpeed()
    in_process = workload.backend == "serial"
    """A serial hub runs in this thread, so the probes around a replay tell
    the speed it ran at.  A node hub runs mostly in worker processes, whose
    cores the probes do not see: there, replays are reported unscaled.
    Set-ups (~1-25 ms) are scaled on both by the probe just before them."""

    setups: list[float] = []
    rates: list[float] = []
    raw_rates: list[float] = []
    latencies: list[float] = []
    """Scaled query latencies in seconds, in the order run."""
    raw_latencies: list[float] = []
    attempted = failed = queries_run = query_failures = mismatches = 0
    ingest_seconds = query_seconds = block_seconds = 0.0
    queried = store = reference = None

    def one_query(raw: list[float]) -> None:
        nonlocal query_failures, mismatches
        query = maker.make(next(kinds))
        t0 = time.perf_counter()
        try:
            result = execute(store, query)
        except Exception:  # noqa: BLE001 - a raising query is counted, not fatal
            query_failures += 1
            traceback.print_exc(file=sys.stderr)
            return
        raw.append(time.perf_counter() - t0)
        if not reference.agrees(query, result):
            mismatches += 1

    def one_block() -> None:
        nonlocal queries_run, query_seconds, block_seconds
        started = time.perf_counter()
        raw: list[float] = []
        for _ in range(BLOCK):
            one_query(raw)
        factor = speed.scale()
        latencies.extend(latency * factor for latency in raw)
        raw_latencies.extend(raw)
        queries_run += BLOCK
        block_seconds = time.perf_counter() - started
        query_seconds += block_seconds

    def block_fits() -> bool:
        return time.perf_counter() + block_seconds < deadline

    def settle() -> None:
        """Every replay starts from the same collector state: what the run
        holds so far (the queried store, the reference answers) is taken out
        of the collector's view, as ``run.py`` does with the input log."""
        gc.collect()
        gc.freeze()

    def span_start() -> None:
        if in_process:
            speed.restart()

    def span_factor() -> float:
        return speed.scale() if in_process else 1.0

    def timed_setup(root: Path):
        factor = speed.restart()
        t0 = time.perf_counter()
        writer, hub, _ = open_pipeline(workload, root)
        setups.append((time.perf_counter() - t0) * factor)
        return writer, hub

    deadline = time.perf_counter() + seconds
    while True:
        round_started = time.perf_counter()
        for _ in range(SPARE_SETUPS):
            spare = work / "spare"
            writer, hub = timed_setup(spare)
            hub.close()
            writer.close()
            shutil.rmtree(spare)
        root = work / f"store-{len(rates)}"
        settle()
        writer, hub = timed_setup(root)
        shape = (hub.backend, hub.n_workers)
        span_start()
        run = ingest(hub, log)
        writer.close()
        raw_rates.append(len(log) / run.seconds)
        rates.append(raw_rates[-1] / span_factor())
        attempted += len(log)
        failed += failed_points(run, summary.points_by_device)
        if queried is None:
            queried = root
            store = open_store(root, create=False)
            reference = Reference(store)
        else:
            shutil.rmtree(root)
        replay = time.perf_counter() - round_started
        ingest_seconds += replay
        # Queries catch up to their share of the time so far, then another
        # replay runs if one still fits before the deadline.
        query_due = ingest_seconds * (1.0 - INGEST_SHARE) / INGEST_SHARE
        speed.restart()
        while not latencies or (query_seconds < query_due and block_fits()):
            one_block()
        if time.perf_counter() + replay > deadline:
            break
    # Too little time is left for another replay: spend it on queries rather
    # than idle, so that a workload with slow replays still gets many blocks.
    while block_fits():
        one_block()

    problems, finest = check_store(workload, summary, store)
    _, store_bytes = disk_usage(queried)
    if mismatches:
        problems.append(f"{mismatches} queries disagree with their full-scan answer")
    if query_failures:
        problems.append(f"{query_failures} queries raised")
    attempted += queries_run
    failed += query_failures
    points = len(log)
    metrics = {
        "ingest_pps": statistics.median(rates),
        "query_p50_ms": ms(latencies, 0.50),
        "query_p99_ms": ms(latencies, 0.99),
        "compression_ratio": finest / points,
        "store_bytes_per_point": store_bytes / points,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "success_fraction": 1.0 - failed / attempted,
    }
    factors = speed.factors
    samples = {
        "ingest_pps": (
            f"median of {len(rates)} replays of {points} points; "
            f"unscaled {min(raw_rates):.0f}-{max(raw_rates):.0f}"
            + ("" if in_process else " (node: reported unscaled)")
        ),
        "query_p50_ms": f"{len(latencies)} queries; unscaled {ms(raw_latencies, 0.50):.3f}",
        "query_p99_ms": f"{len(latencies)} queries; unscaled {ms(raw_latencies, 0.99):.3f}",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    return {
        "metrics": metrics,
        "units": UNITS,
        "samples": samples,
        "speed": (min(factors), statistics.median(factors), max(factors)),
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "backend": shape[0],
        "workers": shape[1],
    }
