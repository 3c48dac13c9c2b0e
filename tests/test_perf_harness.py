"""Tests for the performance harness subsystem (:mod:`repro.perf`)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.exceptions import InvalidParameterError
from repro.perf import harness as harness_module
from repro.perf import (
    GATING_ALGORITHMS,
    PerfCase,
    PerfReport,
    PerfSuite,
    SUITES,
    build_device_log,
    build_fleet,
    compare_reports,
    get_suite,
    interleave_fleet,
    load_report,
    machine_metadata,
    run_suite,
    write_report,
)

TINY_SUITE = PerfSuite(
    name="tiny",
    cases=(PerfCase("taxi-tiny", "taxi", n_trajectories=1, points_per_trajectory=200),),
    algorithms=("dp", "operb"),
    repeats=1,
)

TINY_HUB_SUITE = PerfSuite(
    name="tiny-hub",
    cases=(
        PerfCase(
            "hub-tiny", "taxi", n_trajectories=12, points_per_trajectory=60, mode="hub"
        ),
    ),
    algorithms=("operb", "dp"),
    repeats=1,
)


@pytest.fixture(scope="module")
def tiny_report() -> PerfReport:
    return run_suite(TINY_SUITE)


class TestSuites:
    def test_declared_suites_exist(self):
        assert {"smoke", "quick", "hub", "fleet", "full"} <= set(SUITES)

    def test_quick_suite_tracks_hub_throughput(self):
        assert any(case.mode == "hub" for case in SUITES["quick"].cases)
        assert all(case.mode == "hub" for case in SUITES["hub"].cases)

    def test_gated_quick_suite_covers_the_thread_backend(self):
        # CI gates the quick suite, so a thread-backend hub case regressing
        # fails the build.
        assert any(
            case.mode == "hub" and case.backend == "thread" and case.workers > 1
            for case in SUITES["quick"].cases
        )

    def test_hub_and_fleet_suites_scale_across_backends(self):
        assert {case.backend for case in SUITES["hub"].cases} == {
            "serial",
            "thread",
            "node",
        }
        assert all(case.mode == "fleet" for case in SUITES["fleet"].cases)
        assert {case.backend for case in SUITES["fleet"].cases} == {
            "serial",
            "thread",
            "node",
        }

    def test_gated_quick_suite_covers_the_node_backend(self):
        # The node hot path (wire frames over sockets) regressing must fail
        # the build just like the thread backend does.
        assert any(
            case.mode == "hub" and case.backend == "node" and case.workers > 1
            for case in SUITES["quick"].cases
        )

    def test_invalid_case_mode_rejected(self):
        with pytest.raises(InvalidParameterError, match="mode"):
            PerfCase("bad", "taxi", n_trajectories=1, points_per_trajectory=10, mode="warp")

    def test_invalid_case_backend_and_workers_rejected(self):
        with pytest.raises(InvalidParameterError, match="backend"):
            PerfCase(
                "bad", "taxi", n_trajectories=1, points_per_trajectory=10, backend="auto"
            )
        with pytest.raises(InvalidParameterError, match="workers"):
            PerfCase(
                "bad", "taxi", n_trajectories=1, points_per_trajectory=10, workers=0
            )

    def test_gating_algorithms_covered_by_gating_suites(self):
        for name in ("smoke", "quick"):
            assert set(GATING_ALGORITHMS) <= set(SUITES[name].algorithms)

    def test_get_suite_is_case_insensitive(self):
        assert get_suite("QUICK") is SUITES["quick"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown perf suite"):
            get_suite("warp-speed")

    def test_build_fleet_is_deterministic(self):
        case = TINY_SUITE.cases[0]
        first = build_fleet(case)
        second = build_fleet(case)
        assert len(first) == case.n_trajectories
        assert first == second


class TestRunSuite:
    def test_measurements_cover_every_cell(self, tiny_report):
        keys = {measurement.key for measurement in tiny_report.results}
        assert keys == {"taxi-tiny:dp", "taxi-tiny:operb"}
        assert tiny_report.suite == "tiny"
        assert tiny_report.algorithms() == ["dp", "operb"]

    def test_measurement_values_sane(self, tiny_report):
        for measurement in tiny_report.results:
            assert measurement.points > 0
            assert measurement.wall_seconds > 0.0
            assert measurement.points_per_second > 0.0
            assert 0.0 < measurement.compression_ratio <= 1.0
            assert measurement.segments > 0
            assert measurement.repeats == 1

    def test_metadata_stamped(self, tiny_report):
        meta = tiny_report.meta
        for key in ("platform", "python", "numpy", "cpu_count", "kernel_backend"):
            assert key in meta
        assert meta["calibration_pps"] > 0
        assert meta["kernel_backend"] == "vectorized"

    def test_suite_lookup_by_name(self):
        report = run_suite("smoke", repeats=1)
        assert {m.algorithm for m in report.results} == set(GATING_ALGORITHMS)

    def test_progress_callback_invoked(self):
        lines: list[str] = []
        run_suite(TINY_SUITE, progress=lines.append)
        assert len(lines) == 2
        assert "points/s" in lines[0]

    def test_to_text_table(self, tiny_report):
        text = tiny_report.to_text()
        assert "points/s" in text
        assert "taxi-tiny" in text


class TestHubWorkloads:
    def test_interleave_covers_every_point_round_robin(self):
        fleet = build_fleet(TINY_HUB_SUITE.cases[0])
        records = interleave_fleet(fleet)
        assert len(records) == sum(len(trajectory) for trajectory in fleet)
        # One fix per device per round while every stream is alive.
        first_round = [device_id for device_id, _ in records[: len(fleet)]]
        assert first_round == [f"dev-{i:04d}" for i in range(len(fleet))]

    def test_build_device_log_is_deterministic(self):
        first = build_device_log("taxi", 6, 40, seed=9)
        second = build_device_log("taxi", 6, 40, seed=9)
        assert first == second
        assert 0 < len(first) <= 6 * 40

    def test_hub_mode_measurements(self):
        report = run_suite(TINY_HUB_SUITE)
        assert {m.key for m in report.results} == {"hub-tiny:operb", "hub-tiny:dp"}
        fleet_points = sum(len(t) for t in build_fleet(TINY_HUB_SUITE.cases[0]))
        for measurement in report.results:
            assert measurement.mode == "hub"
            assert measurement.points == fleet_points > 0
            assert measurement.trajectories == 12
            assert measurement.points_per_second > 0.0
            assert measurement.segments > 0
            assert 0.0 < measurement.compression_ratio <= 1.0

    def test_hub_measurements_serialise_with_mode(self, tmp_path):
        report = run_suite(TINY_HUB_SUITE)
        path = write_report(report, tmp_path / "hub.json")
        loaded = load_report(path)
        assert loaded.results == report.results
        assert json.loads(path.read_text())["results"][0]["mode"] == "hub"

    def test_pre_hub_reports_load_with_batch_default(self, tiny_report, tmp_path):
        path = write_report(tiny_report, tmp_path / "old.json")
        payload = json.loads(path.read_text())
        for entry in payload["results"]:
            del entry["mode"]  # a report written before hub mode existed
            del entry["backend"]  # ... or before execution backends
            del entry["workers"]
        path.write_text(json.dumps(payload))
        loaded = load_report(path)
        assert all(measurement.mode == "batch" for measurement in loaded.results)
        assert all(measurement.backend == "serial" for measurement in loaded.results)
        assert all(measurement.workers == 1 for measurement in loaded.results)


TINY_BACKEND_SUITE = PerfSuite(
    name="tiny-backends",
    cases=(
        PerfCase(
            "hub-tiny-t2",
            "taxi",
            n_trajectories=8,
            points_per_trajectory=40,
            mode="hub",
            backend="thread",
            workers=2,
        ),
        PerfCase(
            "fleet-tiny-n2",
            "taxi",
            n_trajectories=4,
            points_per_trajectory=60,
            mode="fleet",
            backend="node",
            workers=2,
        ),
    ),
    algorithms=("operb",),
    repeats=1,
)


class TestBackendMeasurements:
    def test_backend_recorded_per_measurement(self, tiny_report):
        # Batch cells always run inline and say so.
        assert all(m.backend == "serial" and m.workers == 1 for m in tiny_report.results)

    def test_hub_and_fleet_cells_record_their_backend(self, tmp_path):
        report = run_suite(TINY_BACKEND_SUITE)
        by_key = report.by_key()
        # Concurrent cells carry their backend in the key, so cross-backend
        # comparisons can never silently match.
        hub_cell = by_key["hub-tiny-t2:operb@threadx2"]
        assert hub_cell.mode == "hub"
        assert hub_cell.backend == "thread"
        assert hub_cell.workers == 2
        assert hub_cell.segments > 0 and hub_cell.points_per_second > 0.0
        fleet_cell = by_key["fleet-tiny-n2:operb@nodex2"]
        assert fleet_cell.mode == "fleet"
        assert fleet_cell.backend == "node"
        assert fleet_cell.workers == 2
        assert 0.0 < fleet_cell.compression_ratio <= 1.0
        # The backend survives the JSON round trip.
        loaded = load_report(write_report(report, tmp_path / "backends.json"))
        assert loaded.results == report.results
        payload = json.loads((tmp_path / "backends.json").read_text())
        assert {entry["backend"] for entry in payload["results"]} == {
            "thread",
            "node",
        }

    def test_fleet_mode_matches_batch_segments(self):
        fleet_suite = PerfSuite(
            name="tiny-fleet",
            cases=(
                PerfCase(
                    "fleet-tiny",
                    "taxi",
                    n_trajectories=3,
                    points_per_trajectory=80,
                    mode="fleet",
                ),
            ),
            algorithms=("operb",),
            repeats=1,
        )
        batch_suite = PerfSuite(
            name="tiny-batch",
            cases=(
                PerfCase(
                    "batch-tiny", "taxi", n_trajectories=3, points_per_trajectory=80
                ),
            ),
            algorithms=("operb",),
            repeats=1,
        )
        fleet_cell = run_suite(fleet_suite).results[0]
        batch_cell = run_suite(batch_suite).results[0]
        assert fleet_cell.segments == batch_cell.segments
        assert fleet_cell.compression_ratio == batch_cell.compression_ratio

    def test_block_size_is_recorded_and_overridable(self):
        tiny_blocks = PerfSuite(
            name="tiny-blocks",
            cases=(
                PerfCase(
                    "hub-tiny-blocks",
                    "idle-fleet",
                    n_trajectories=4,
                    points_per_trajectory=50,
                    mode="hub",
                    backend="thread",
                    workers=2,
                    block_size=64,
                ),
            ),
            algorithms=("operb",),
            repeats=1,
        )
        cell = run_suite(tiny_blocks).results[0]
        assert cell.block_size == 64
        overridden = run_suite(tiny_blocks, block_size=128).results[0]
        assert overridden.block_size == 128
        # The knob is purely an execution choice: identical semantic output.
        assert overridden.segments == cell.segments
        assert overridden.compression_ratio == cell.compression_ratio

    def test_blocks_suite_is_declared(self):
        from repro.perf.workloads import SUITES, IDLE_FLEET_PROFILE

        suite = SUITES["blocks"]
        assert {case.backend for case in suite.cases} == {
            "serial",
            "thread",
            "node",
        }
        assert all(case.mode == "hub" for case in suite.cases)
        assert all(case.profile == IDLE_FLEET_PROFILE for case in suite.cases)
        # The CI-gated quick suite carries one thread-backend blocks case.
        quick = SUITES["quick"]
        assert any(
            case.profile == IDLE_FLEET_PROFILE and case.backend == "thread"
            for case in quick.cases
        )

    def test_idle_fleet_is_deterministic(self):
        from repro.perf.workloads import build_idle_fleet

        case = PerfCase(
            "idle", "idle-fleet", n_trajectories=2, points_per_trajectory=300, mode="hub"
        )
        first = build_idle_fleet(case)
        second = build_idle_fleet(case)
        assert len(first) == 2 and all(len(t) == 300 for t in first)
        for a, b in zip(first, second):
            assert a == b

    def test_run_suite_backend_override_applies_to_hub_and_fleet_only(self):
        mixed = PerfSuite(
            name="tiny-mixed",
            cases=(
                PerfCase("batch-tiny", "taxi", n_trajectories=1, points_per_trajectory=60),
                PerfCase(
                    "hub-tiny",
                    "taxi",
                    n_trajectories=6,
                    points_per_trajectory=30,
                    mode="hub",
                ),
            ),
            algorithms=("operb",),
            repeats=1,
        )
        report = run_suite(mixed, backend="thread", workers=2)
        by_key = report.by_key()
        assert by_key["batch-tiny:operb"].backend == "serial"
        overridden = by_key["hub-tiny:operb@threadx2"]
        assert overridden.backend == "thread"
        assert overridden.workers == 2


class TestSerialization:
    def test_roundtrip(self, tiny_report, tmp_path):
        path = write_report(tiny_report, tmp_path / "BENCH_results.json")
        loaded = load_report(path)
        assert loaded.suite == tiny_report.suite
        assert loaded.results == tiny_report.results
        assert loaded.meta == tiny_report.meta

    def test_json_shape(self, tiny_report, tmp_path):
        path = write_report(tiny_report, tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == 1
        assert payload["suite"] == "tiny"
        assert {entry["algorithm"] for entry in payload["results"]} == {"dp", "operb"}
        assert "points_per_second" in payload["results"][0]


def _scaled(report: PerfReport, factor: float) -> PerfReport:
    """Copy of ``report`` with every throughput multiplied by ``factor``."""
    results = [
        dataclasses.replace(
            measurement, points_per_second=measurement.points_per_second * factor
        )
        for measurement in report.results
    ]
    return PerfReport(suite=report.suite, results=results, meta=dict(report.meta))


class TestCompare:
    def test_self_comparison_is_clean(self, tiny_report):
        comparison = compare_reports(tiny_report, tiny_report)
        assert comparison.ok
        assert len(comparison.rows) == len(tiny_report.results)
        assert comparison.calibration_factor == 1.0
        assert "OK" in comparison.to_text()

    def test_regression_detected(self, tiny_report):
        slowed = _scaled(tiny_report, 0.2)  # 5x slower than baseline
        comparison = compare_reports(tiny_report, slowed, threshold=2.0)
        assert not comparison.ok
        assert len(comparison.regressions) == len(tiny_report.results)
        assert all(row.slowdown == pytest.approx(5.0) for row in comparison.rows)
        assert "FAIL" in comparison.to_text()

    def test_speedups_never_fail(self, tiny_report):
        faster = _scaled(tiny_report, 10.0)
        assert compare_reports(tiny_report, faster, threshold=2.0).ok

    def test_calibration_normalises_machine_speed(self, tiny_report):
        # Baseline from a machine measured 4x faster overall: without
        # calibration this would read as a 4x regression; with it, clean.
        baseline = _scaled(tiny_report, 4.0)
        baseline.meta["calibration_pps"] = tiny_report.meta["calibration_pps"] * 4.0
        comparison = compare_reports(baseline, tiny_report, threshold=2.0)
        assert comparison.calibration_factor == pytest.approx(0.25)
        assert comparison.ok

    def test_missing_and_added_cells_reported_not_failed(self, tiny_report):
        partial = PerfReport(
            suite=tiny_report.suite,
            results=[tiny_report.results[0]],
            meta=dict(tiny_report.meta),
        )
        comparison = compare_reports(tiny_report, partial)
        assert comparison.ok
        assert comparison.missing == [tiny_report.results[1].key]
        comparison = compare_reports(partial, tiny_report)
        assert comparison.added == [tiny_report.results[1].key]

    def test_disjoint_reports_rejected(self, tiny_report):
        other = PerfReport(
            suite="other",
            results=[dataclasses.replace(tiny_report.results[0], case="mars")],
        )
        with pytest.raises(InvalidParameterError, match="share no"):
            compare_reports(tiny_report, other)

    def test_threshold_must_exceed_one(self, tiny_report):
        with pytest.raises(InvalidParameterError, match="threshold"):
            compare_reports(tiny_report, tiny_report, threshold=1.0)


class TestMetadata:
    def test_calibration_is_the_median_of_several_readings(self, monkeypatch):
        readings = iter([1.3e6, 1.3e6, 2.8e6, 1.3e6, 1.3e6])
        monkeypatch.setattr(
            harness_module, "calibration_points_per_second", lambda: next(readings)
        )
        assert machine_metadata()["calibration_pps"] == 1.3e6
        assert next(readings, None) is None  # every reading was taken

    def test_calibration_can_be_skipped(self):
        meta = machine_metadata(calibrate=False)
        assert "calibration_pps" not in meta
        assert meta["repro_version"]


TINY_STORE_SUITE = PerfSuite(
    name="tiny-store",
    cases=(
        PerfCase(
            "store-tiny", "taxi", n_trajectories=8, points_per_trajectory=80, mode="store"
        ),
    ),
    algorithms=("operb",),
    repeats=1,
)


class TestStoreWorkloads:
    def test_store_mode_measurements_record_scan_fraction(self):
        report = run_suite(TINY_STORE_SUITE)
        (measurement,) = report.results
        assert measurement.mode == "store"
        assert measurement.backend == "serial" and measurement.workers == 1
        assert measurement.segments > 0
        assert measurement.points_per_second > 0.0
        # The headline store number: zone maps must actually skip data on
        # the benchmark's device/time-window queries.
        assert 0.0 < measurement.scan_fraction < 1.0

    def test_store_measurements_serialise_with_scan_fraction(self, tmp_path):
        report = run_suite(TINY_STORE_SUITE)
        path = write_report(report, tmp_path / "store.json")
        loaded = load_report(path)
        assert loaded.results == report.results
        entry = json.loads(path.read_text())["results"][0]
        assert 0.0 < entry["scan_fraction"] < 1.0

    def test_pre_store_reports_load_with_full_scan_default(self, tiny_report, tmp_path):
        path = write_report(tiny_report, tmp_path / "old.json")
        payload = json.loads(path.read_text())
        for entry in payload["results"]:
            del entry["scan_fraction"]  # a report written before store mode
        path.write_text(json.dumps(payload))
        loaded = load_report(path)
        assert all(m.scan_fraction == 1.0 for m in loaded.results)

    def test_quick_suite_gates_the_store_path(self):
        quick = get_suite("quick")
        assert any(case.mode == "store" for case in quick.cases)
        assert "store" in SUITES
        assert all(case.mode == "store" for case in SUITES["store"].cases)


TINY_PYRAMID_SUITE = PerfSuite(
    name="tiny-pyramid",
    cases=(
        PerfCase(
            "pyr-tiny-k3",
            "taxi",
            n_trajectories=6,
            points_per_trajectory=80,
            mode="pyramid",
            levels=3,
        ),
        PerfCase(
            "pyr-tiny-k1",
            "taxi",
            n_trajectories=6,
            points_per_trajectory=80,
            mode="pyramid",
            levels=1,
        ),
    ),
    algorithms=("operb",),
    repeats=1,
)


class TestPyramidMeasurements:
    def test_pyramid_suite_is_declared_and_gated(self):
        assert "pyramid" in SUITES
        assert any(case.mode == "pyramid" for case in SUITES["quick"].cases)
        assert all(case.mode == "pyramid" for case in SUITES["pyramid"].cases)
        # The suite carries single-level reference cells for the cost ratio.
        assert any(case.levels == 1 for case in SUITES["pyramid"].cases)
        assert any(case.levels > 1 for case in SUITES["pyramid"].cases)

    def test_levels_validated(self):
        with pytest.raises(InvalidParameterError, match="levels"):
            PerfCase(
                "bad", "taxi", n_trajectories=1, points_per_trajectory=10, levels=0
            )

    def test_pyramid_mode_measurements(self):
        report = run_suite(TINY_PYRAMID_SUITE)
        by_key = {m.key: m for m in report.results}
        multi = by_key["pyr-tiny-k3:operb"]
        assert multi.mode == "pyramid"
        assert multi.levels == 3
        assert multi.level_compression is not None
        assert len(multi.level_compression) == 3
        # Coarser levels never retain more than finer ones, and the finest
        # level's ratio is the headline compression_ratio.
        assert multi.level_compression[0] == pytest.approx(multi.compression_ratio)
        assert all(
            finer >= coarser
            for finer, coarser in zip(
                multi.level_compression, multi.level_compression[1:]
            )
        )
        single = by_key["pyr-tiny-k1:operb"]
        assert single.levels == 1
        assert single.segments > 0

    def test_non_pyramid_capable_algorithms_are_skipped_not_crashed(self):
        # fbqs is error bounded but not pyramid capable (its accepted points
        # may project beyond the emitted endpoints); a mixed suite must drop
        # the cell, announce it, and keep the capable cells.
        mixed = PerfSuite(
            name="tiny-pyramid-mixed",
            cases=(TINY_PYRAMID_SUITE.cases[0],),
            algorithms=("operb", "fbqs"),
            repeats=1,
        )
        lines: list[str] = []
        report = run_suite(mixed, progress=lines.append)
        keys = {m.key for m in report.results}
        assert keys == {"pyr-tiny-k3:operb"}
        assert any("skipped (not pyramid-capable)" in line for line in lines)

    def test_pyramid_measurements_serialise_and_reload(self, tmp_path):
        report = run_suite(TINY_PYRAMID_SUITE)
        path = write_report(report, tmp_path / "pyramid.json")
        loaded = load_report(path)
        assert loaded.results == report.results
        entry = json.loads(path.read_text())["results"][0]
        assert entry["mode"] == "pyramid"
        assert "levels" in entry and "level_compression" in entry

    def test_pre_pyramid_reports_load_with_single_level_default(
        self, tiny_report, tmp_path
    ):
        path = write_report(tiny_report, tmp_path / "old.json")
        payload = json.loads(path.read_text())
        for entry in payload["results"]:
            entry.pop("levels", None)
            entry.pop("level_compression", None)
        path.write_text(json.dumps(payload))
        loaded = load_report(path)
        assert all(measurement.levels == 1 for measurement in loaded.results)
        assert all(
            measurement.level_compression is None for measurement in loaded.results
        )
