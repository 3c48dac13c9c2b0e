"""The repository benchmark: raw point log -> StreamHub -> segment store -> queries.

Run from the repository root::

    python3 perfbench/run.py --workload taxi-node --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics (see ``layers.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
machine metadata and a readable summary.  The exit status is 0 only when the
correctness gate passed.  README.md in this directory documents the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
"""Everything a run writes lives here: its ``work-*`` directory is removed
when the run ends, ``traces/`` keeps the span dumps of traced runs."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a few devices and queries (the smoke test)"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # machine_metadata() asks git for the commit; keep that lookup inside
    # the checkout rather than in whatever directory holds it.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

    from repro.perf import machine_metadata
    from workloads import WORKLOADS, build_log

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    log = build_log(workload, args.seed, tiny=args.tiny)
    # The input log is the benchmark's, not the program's: keep the
    # collector from re-scanning its records during every timed section.
    gc.collect()
    gc.freeze()
    work = WORK / f"work-{workload.name}-{os.getpid()}"
    try:
        if args.trace:
            from layers import trace_layers
            from tracing import Tracer

            tracer = Tracer(uuid.uuid4().hex)
            outcome = trace_layers(workload, log, args.seed, work, tracer, args.tiny)
            trace_path = WORK / "traces" / f"{workload.name}-seed{args.seed}.json"
            tracer.dump(trace_path, workload=workload.name, seed=args.seed)
        else:
            from measure import measure

            outcome = measure(workload, log, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    header = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "input_points": len(log),
        "backend": outcome["backend"],
        "workers": outcome["workers"],
        "machine": machine_metadata(),
    }
    if "speed" in outcome:
        header["host_speed"] = outcome["speed"]
    if args.trace:
        header["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(header, sort_keys=True))
    units = outcome["units"]
    for name, value in outcome["metrics"].items():
        detail = outcome["samples"].get(name)
        print(f"{name:40s} {value:>16.6g} {units[name]}" + (f"  ({detail})" if detail else ""))
    for problem in outcome["problems"]:
        print(f"correctness: {problem}")
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
