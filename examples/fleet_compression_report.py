"""Fleet compression report: which algorithm should a fleet operator deploy?

Compresses a synthetic fleet from each of the paper's four dataset profiles
with every paper algorithm through the fleet executor
(``Simplifier.run_many``), then prints a decision table: compression ratio,
average error, anomalous segments, wall-clock time and fleet throughput.
This is the paper's Section 6 in miniature and the kind of study a
downstream user would run on their own data before picking an algorithm and
an error bound.

``WORKERS`` defaults to 1 because this demo fleet is tiny (3 trajectories
per cell) and worker-process startup would dominate the timing columns.  On a
real fleet (hundreds to thousands of trajectories) set it to your core
count — the same ``run_many`` call then turns hours into minutes.

Run with::

    python examples/fleet_compression_report.py
"""

from __future__ import annotations

from repro import Simplifier, evaluate_fleet, generate_dataset
from repro.experiments.reporting import format_text_table

EPSILON = 40.0
ALGORITHMS = ("dp", "fbqs", "operb", "operb-a")
PROFILES = ("taxi", "truck", "sercar", "geolife")
WORKERS = 1


def main() -> None:
    rows = []
    for profile in PROFILES:
        fleet = generate_dataset(profile, n_trajectories=3, points_per_trajectory=3_000, seed=99)
        for algorithm in ALGORITHMS:
            result = Simplifier(algorithm, EPSILON).run_many(fleet, workers=WORKERS)
            report = evaluate_fleet(fleet, result.successful(), EPSILON)
            rows.append(
                {
                    "dataset": profile,
                    "algorithm": algorithm,
                    "segments": report.total_segments,
                    "compression ratio": round(report.compression_ratio, 4),
                    "avg error (m)": round(report.average_error, 2),
                    "anomalous": report.anomalous_segments,
                    "bound ok": report.error_bound_satisfied,
                    "seconds": round(result.seconds, 3),
                    "points/s": int(result.points_per_second),
                }
            )
    columns = [
        "dataset",
        "algorithm",
        "segments",
        "compression ratio",
        "avg error (m)",
        "anomalous",
        "bound ok",
        "seconds",
        "points/s",
    ]
    print(f"Fleet compression report (zeta = {EPSILON:g} m, workers = {WORKERS})\n")
    print(format_text_table(columns, rows))
    print(
        "\nReading guide: lower compression ratio is better; OPERB-A should have\n"
        "the lowest ratio, OPERB should be comparable with DP, and every\n"
        "error-bounded algorithm must report 'bound ok = yes'."
    )


if __name__ == "__main__":
    main()
