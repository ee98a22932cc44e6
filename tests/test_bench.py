"""Tier-1 tests for the unified benchmark subsystem (src/repro/bench).

Covers the satellite checklist: registry uniqueness, BenchResult JSON
round-trip, baseline comparison pass/fail/tolerance edges, determinism
of reported virtual-time metrics across seeded runs, and the recorded
hot-path speedup gate.
"""

import json
import math
from pathlib import Path

import pytest

from repro.bench import baseline as baseline_mod
from repro.bench import registry, runner, timing
from repro.bench.registry import BenchError, BenchSpec, benchmark
from repro.bench.result import SCHEMA, TIMING_FIELDS, BenchResult

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline.json"


@pytest.fixture
def scratch_registry():
    """Run a test against an empty registry, restoring the real one."""
    saved = dict(registry._REGISTRY)
    registry._REGISTRY.clear()
    try:
        yield registry
    finally:
        registry._REGISTRY.clear()
        registry._REGISTRY.update(saved)


def make_result(name="fake", **overrides):
    payload = dict(
        name=name, suite="smoke", params={"n": 3}, warmup=1, repeats=2,
        wall_s=0.5, wall_s_all=[0.5, 0.6], events=1000,
        events_per_sec=2000.0, homes=10, homes_per_sec=20.0,
        virtual_s=42.0, latency_p50=1.5, latency_p95=9.0,
        metrics={"rows": [{"x": 1}]}, timing={"ms": 3.0})
    payload.update(overrides)
    return BenchResult(**payload)


class TestRegistry:
    def test_register_and_call(self, scratch_registry):
        @benchmark("toy", suite="smoke", n=4)
        def toy(n):
            return {"metrics": {"n_squared": n * n}}

        spec = registry.get("toy")
        assert spec.suite == "smoke"
        assert registry.call("toy")["metrics"]["n_squared"] == 16
        assert registry.call("toy", n=5)["metrics"]["n_squared"] == 25

    def test_duplicate_name_rejected(self, scratch_registry):
        @benchmark("dup")
        def first():
            return {}

        with pytest.raises(BenchError, match="duplicate"):
            @benchmark("dup")
            def second():
                return {}

    def test_unknown_suite_rejected(self, scratch_registry):
        with pytest.raises(BenchError, match="unknown suite"):
            @benchmark("bad", suite="nightly")
            def entry():
                return {}

    def test_non_dict_outcome_rejected(self, scratch_registry):
        @benchmark("bad_outcome")
        def entry():
            return [1, 2, 3]

        with pytest.raises(BenchError, match="expected a dict"):
            registry.call("bad_outcome")

    def test_select_smoke_subset_of_full(self, scratch_registry):
        @benchmark("a", suite="smoke")
        def a():
            return {}

        @benchmark("b", suite="full")
        def b():
            return {}

        assert registry.names("smoke") == ["a"]
        assert registry.names("full") == ["a", "b"]

    def test_select_pattern_filter(self, scratch_registry):
        for name in ("fleet_scale", "fleet_mix", "recovery"):
            registry.register(BenchSpec(name=name, fn=lambda: {}))
        assert [s.name for s in registry.select(pattern="fleet*")] == \
            ["fleet_mix", "fleet_scale"]
        assert [s.name for s in registry.select(pattern="cover")] == \
            ["recovery"]

    def test_builtin_suites_register_all_ported_scripts(self):
        from repro.bench.suites import load_builtin_suites

        load_builtin_suites()
        full = set(registry.names("full"))
        # One registered entry per ported benchmarks/bench_*.py script.
        assert {"weak_visibility", "example_timeline", "scenarios",
                "final_incongruence", "failures", "schedulers",
                "leasing", "stretch", "scheduler_insertion",
                "routine_size", "device_popularity", "long_routines",
                "ablations", "occ_extension", "fleet_scale",
                "fleet_scale_sweep", "parallel_exec", "recovery_replay",
                "recovery_sweep", "sim_dispatch"} <= full
        smoke = set(registry.names("smoke"))
        assert "fleet_scale" in smoke and "sim_dispatch" in smoke
        assert smoke < full

    def test_scale_suite_isolates_multicore_benchmark(self):
        from repro.bench.suites import load_builtin_suites

        load_builtin_suites()
        assert "scale" in registry.SUITES
        assert registry.names("scale") == ["fleet_scale_mp"]
        assert "fleet_scale_mp" not in registry.names("smoke")
        assert "fleet_scale_mp" in registry.names("full")

    def test_fleet_scale_mp_outcome_shape(self):
        from repro.bench.suites import load_builtin_suites

        load_builtin_suites()
        outcome = registry.call("fleet_scale_mp", homes=6,
                                worker_counts=(1, 2), inner_repeats=1)
        assert set(outcome["metrics"]) == \
            {"routines", "committed", "abort_rate"}
        timing_block = outcome["timing"]
        assert set(timing_block) == {"cores", "scaling"}
        assert timing_block["cores"] >= 1
        rows = timing_block["scaling"]
        assert [row["workers"] for row in rows] == [1, 2]
        assert rows[0]["speedup"] == 1.0
        assert rows[0]["efficiency"] == 1.0
        for row in rows:
            assert row["homes_per_sec"] > 0
            assert {"wall_s", "efficiency_raw", "efficiency"} <= set(row)

    def test_fleet_scale_mp_requires_reference_count(self):
        from repro.bench.suites import load_builtin_suites

        load_builtin_suites()
        with pytest.raises(ValueError, match="start at 1"):
            registry.call("fleet_scale_mp", homes=4, worker_counts=(2, 4),
                          inner_repeats=1)


class TestBenchResult:
    def test_json_round_trip(self):
        result = make_result()
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["schema"] == SCHEMA
        restored = BenchResult.from_dict(payload)
        assert restored == result

    def test_deterministic_dict_strips_timing_fields(self):
        result = make_result()
        deterministic = result.deterministic_dict()
        for key in TIMING_FIELDS + ("meta",):
            assert key not in deterministic
        assert deterministic["events"] == 1000
        assert deterministic["virtual_s"] == 42.0
        # Two runs differing only in wall-clock compare equal.
        slower = make_result(wall_s=9.9, wall_s_all=[9.9],
                             events_per_sec=101.0, homes_per_sec=1.0,
                             timing={"ms": 99.0})
        assert slower.deterministic_dict() == deterministic

    def test_row_is_flat_and_rounded(self):
        row = make_result().row()
        assert row["wall_ms"] == 500.0
        assert row["events_per_sec"] == 2000
        assert set(row) == {"name", "suite", "wall_ms", "events",
                            "events_per_sec", "homes_per_sec",
                            "lat_p50", "lat_p95"}


class TestTiming:
    def test_min_of_n_and_event_counting(self, scratch_registry):
        calls = []

        @benchmark("timed", suite="smoke", events=50)
        def timed(events):
            from repro.sim.engine import Simulator

            calls.append(1)
            sim = Simulator()
            for i in range(events):
                sim.call_after(float(i), lambda: None)
            sim.run()
            return {"virtual_s": sim.now, "metrics": {}}

        result = timing.run_benchmark(registry.get("timed"),
                                      warmup=2, repeats=3)
        assert len(calls) == 5                      # 2 warmup + 3 timed
        assert len(result.wall_s_all) == 3
        assert result.wall_s == min(result.wall_s_all)
        assert result.events == 50                  # counter diff
        assert result.events_per_sec == pytest.approx(
            50 / result.wall_s)
        assert result.virtual_s == 49.0

    def test_bad_policy_rejected(self, scratch_registry):
        @benchmark("t")
        def t():
            return {}

        with pytest.raises(BenchError, match="repeats"):
            timing.measure(registry.get("t"), repeats=0)
        with pytest.raises(BenchError, match="warmup"):
            timing.measure(registry.get("t"), warmup=-1)


class TestBaseline:
    def baseline(self, eps=2000.0, hps=None):
        entry = {"events_per_sec": eps}
        if hps is not None:
            entry["homes_per_sec"] = hps
        return {"schema": baseline_mod.BASELINE_SCHEMA,
                "benchmarks": {"fake": entry}}

    def test_pass_within_tolerance(self):
        rows, ok = baseline_mod.compare(
            [make_result(events_per_sec=1600.0)],
            self.baseline(), tolerance=0.25)
        assert ok and rows[0]["status"] == "ok"
        assert rows[0]["floor"] == 1500.0

    def test_fail_below_tolerance(self):
        rows, ok = baseline_mod.compare(
            [make_result(events_per_sec=1400.0)],
            self.baseline(), tolerance=0.25)
        assert not ok
        assert rows[0]["status"] == "regression"

    def test_exact_floor_passes(self):
        rows, ok = baseline_mod.compare(
            [make_result(events_per_sec=1500.0)],
            self.baseline(), tolerance=0.25)
        assert ok

    def test_zero_tolerance_pins_baseline(self):
        _rows, ok = baseline_mod.compare(
            [make_result(events_per_sec=1999.9)],
            self.baseline(), tolerance=0.0)
        assert not ok
        _rows, ok = baseline_mod.compare(
            [make_result(events_per_sec=2000.0)],
            self.baseline(), tolerance=0.0)
        assert ok

    def test_improvement_never_fails(self):
        _rows, ok = baseline_mod.compare(
            [make_result(events_per_sec=1e9)], self.baseline())
        assert ok

    def test_untracked_benchmark_passes(self):
        rows, ok = baseline_mod.compare(
            [make_result(name="new_bench")], self.baseline())
        assert ok and rows[0]["status"] == "untracked"

    def test_unmeasurable_tracked_metric_fails(self):
        rows, ok = baseline_mod.compare(
            [make_result(events_per_sec=None)], self.baseline())
        assert not ok
        assert any(row["status"] == "unmeasured" for row in rows)

    def test_both_metrics_compared(self):
        rows, ok = baseline_mod.compare(
            [make_result(events_per_sec=1900.0, homes_per_sec=10.0)],
            self.baseline(hps=100.0), tolerance=0.25)
        assert not ok
        statuses = {row["metric"]: row["status"] for row in rows}
        assert statuses == {"events_per_sec": "ok",
                            "homes_per_sec": "regression"}

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(BenchError, match="tolerance"):
            baseline_mod.compare([make_result()], self.baseline(),
                                 tolerance=1.5)

    def test_make_baseline_merges_and_keeps_unmeasured_floors(self):
        # A filtered --update-baseline run must not drop the floors of
        # benchmarks that did not run.
        old = {"schema": baseline_mod.BASELINE_SCHEMA,
               "benchmarks": {"other": {"events_per_sec": 7.0}}}
        payload = baseline_mod.make_baseline([make_result()],
                                             merge_into=old)
        assert payload["benchmarks"]["other"] == {"events_per_sec": 7.0}
        assert payload["benchmarks"]["fake"]["events_per_sec"] == 2000.0
        # A re-measured benchmark overwrites its old floor.
        old["benchmarks"]["fake"] = {"events_per_sec": 1.0}
        payload = baseline_mod.make_baseline([make_result()],
                                             merge_into=old)
        assert payload["benchmarks"]["fake"]["events_per_sec"] == 2000.0

    def test_make_baseline_min_events_skips_micro_entries(self):
        micro = make_result(name="micro", events=63)
        payload = baseline_mod.make_baseline([make_result(), micro],
                                             min_events=500)
        assert "fake" in payload["benchmarks"]
        assert "micro" not in payload["benchmarks"]

    def test_checked_in_baseline_skips_noise_dominated_micro_entry(self):
        payload = json.loads(BASELINE_PATH.read_text())
        assert "example_timeline" not in payload["benchmarks"]

    def test_make_baseline_then_compare_round_trips(self):
        results = [make_result(), make_result(name="other",
                                              events_per_sec=None,
                                              homes=None,
                                              homes_per_sec=None)]
        payload = baseline_mod.make_baseline(results)
        assert payload["schema"] == baseline_mod.BASELINE_SCHEMA
        assert "other" not in payload["benchmarks"]   # nothing tracked
        _rows, ok = baseline_mod.compare(results, payload, tolerance=0.1)
        assert ok

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"schema": "other/1"}')
        with pytest.raises(BenchError, match="schema"):
            baseline_mod.load_baseline(str(path))


class TestRunner:
    def test_run_suite_merges_and_gates(self, scratch_registry,
                                        tmp_path, monkeypatch):
        # Isolated registry: stub out the builtin-suite loader.
        monkeypatch.setattr("repro.bench.runner.load_builtin_suites",
                            lambda: None)

        @benchmark("alpha", suite="smoke", n=2)
        def alpha(n):
            return {"metrics": {"n": n}}

        @benchmark("beta", suite="full")
        def beta():
            return {"metrics": {}}

        summary = runner.run_suite(suite="smoke", warmup=0, repeats=1)
        assert summary["ok"] is True
        assert [r["name"] for r in summary["results"]] == ["alpha"]
        assert summary["results"][0]["metrics"] == {"n": 2}
        assert summary["meta"]["python"]

        # Full suite picks up both; overrides reach the entry.
        summary = runner.run_suite(suite="full", warmup=0, repeats=1,
                                   overrides={"alpha": {"n": 7}})
        assert [r["name"] for r in summary["results"]] == \
            ["alpha", "beta"]
        assert summary["results"][0]["metrics"] == {"n": 7}
        assert summary["results"][0]["params"] == {"n": 7}

        # Baseline gating: impossible floor -> summary not ok.
        path = tmp_path / "base.json"
        path.write_text(json.dumps({
            "schema": baseline_mod.BASELINE_SCHEMA,
            "hotpath_pass": {"rows": []},
            "benchmarks": {"alpha": {"events_per_sec": 1e12}}}))
        summary = runner.run_suite(suite="smoke", warmup=0, repeats=1,
                                   baseline_path=str(path))
        assert summary["ok"] is False
        assert summary["baseline"]["rows"][0]["status"] == "unmeasured"
        assert summary["hotpath_pass"] == {"rows": []}

        out = tmp_path / "BENCH_summary.json"
        runner.write_summary(summary, str(out))
        assert json.loads(out.read_text())["schema"] == \
            runner.SUMMARY_SCHEMA

    def test_empty_selection_is_an_error(self, scratch_registry,
                                         monkeypatch):
        monkeypatch.setattr("repro.bench.runner.load_builtin_suites",
                            lambda: None)
        with pytest.raises(BenchError, match="no benchmarks match"):
            runner.run_suite(suite="smoke", pattern="nope")


class TestDeterminism:
    def test_seeded_smoke_runs_report_identical_nontiming_fields(self):
        """Two harness runs agree on every non-timing field.

        Uses shrunken parameters for speed; covers a virtual-time fleet
        benchmark, a figure benchmark and the plan-execution compare.
        """
        overrides = {"fleet_scale": {"homes": 6},
                     "parallel_exec": {"routines": 3, "width": 4}}

        def snapshot():
            summary = runner.run_suite(
                suite="smoke",
                pattern="fleet_scale|example_timeline|parallel_exec",
                warmup=0, repeats=1, overrides=overrides)
            return [result.deterministic_dict()
                    for result in runner.summary_results(summary)]

        first, second = snapshot(), snapshot()
        assert first == second
        # Virtual-time metrics are present and finite (not wall time).
        fleet = next(entry for entry in first
                     if entry["name"] == "fleet_scale")
        assert fleet["virtual_s"] and math.isfinite(fleet["virtual_s"])
        assert fleet["events"] > 0


class TestHotpathPass:
    """The measured before/after table recorded in the seed baseline."""

    def load(self):
        return json.loads(BASELINE_PATH.read_text())

    def test_baseline_schema_and_tracked_smoke_benchmarks(self):
        payload = self.load()
        assert payload["schema"] == baseline_mod.BASELINE_SCHEMA
        assert "fleet_scale" in payload["benchmarks"]
        assert payload["benchmarks"]["fleet_scale"]["events_per_sec"] > 0

    def test_recorded_fleet_scale_speedup_is_at_least_1_3x(self):
        hotpath = self.load()["hotpath_pass"]
        assert hotpath["fleet_scale_speedup"] >= 1.3
        by_name = {row["name"]: row for row in hotpath["rows"]}
        fleet = by_name["fleet_scale"]
        assert fleet["after_events_per_sec"] >= \
            1.3 * fleet["before_events_per_sec"]
        assert fleet["speedup"] == pytest.approx(
            fleet["after_events_per_sec"]
            / fleet["before_events_per_sec"], rel=1e-3)
        # The raw dispatch loop gained even more than the fleet path.
        assert by_name["sim_dispatch"]["speedup"] >= 1.3


class TestDispatchUnification:
    """run() and step() share _dispatch, so their traces cannot drift."""

    def build(self, n=20):
        from repro.sim.engine import Simulator

        sim = Simulator()
        trace = []
        for i in range(n):
            sim.call_after(i * 0.5, trace.append, (i, "t"))
        # One cancelled event exercises the lazy-cancellation path.
        doomed = sim.call_after(2.25, trace.append, ("doomed",))
        sim.cancel(doomed)
        return sim, trace

    def test_step_equals_run_trace(self):
        sim_run, trace_run = self.build()
        hooks_run = []
        sim_run.add_post_event_hook(lambda: hooks_run.append(
            sim_run.events_processed))
        sim_run.run()

        sim_step, trace_step = self.build()
        hooks_step = []
        sim_step.add_post_event_hook(lambda: hooks_step.append(
            sim_step.events_processed))
        while sim_step.step():
            pass

        assert trace_step == trace_run
        assert hooks_step == hooks_run
        assert sim_step.events_processed == sim_run.events_processed
        assert sim_step.now == sim_run.now


class TestFleetPass:
    """The measured fleet-overhaul before/after table (PR 5)."""

    def load(self):
        return json.loads(BASELINE_PATH.read_text())

    def test_recorded_fleet_scale_speedup_is_at_least_1_5x(self):
        fleet_pass = self.load()["fleet_pass"]
        assert fleet_pass["fleet_scale_speedup"] >= 1.5
        by_name = {row["name"]: row for row in fleet_pass["rows"]}
        fleet = by_name["fleet_scale"]
        assert fleet["after_homes_per_sec"] >= \
            1.5 * fleet["before_homes_per_sec"]
        assert fleet["speedup"] == pytest.approx(
            fleet["after_homes_per_sec"]
            / fleet["before_homes_per_sec"], rel=1e-3)

    def test_scheduler_insertion_did_not_regress(self):
        by_name = {row["name"]: row
                   for row in self.load()["fleet_pass"]["rows"]}
        assert by_name["scheduler_insertion"]["after_events_per_sec"] >= \
            by_name["scheduler_insertion"]["before_events_per_sec"]

    def test_recovery_replay_before_after_row_recorded(self):
        by_name = {row["name"]: row
                   for row in self.load()["fleet_pass"]["rows"]}
        row = by_name["recovery_replay"]
        assert row["before_events_per_sec"] > 0
        assert row["after_events_per_sec"] >= row["before_events_per_sec"]

    def test_n1000_scaling_row_recorded(self):
        scaling = self.load()["fleet_pass"]["scaling_n1000"]
        assert scaling["serial_homes_per_sec"] > 0
        assert scaling["process_workers"] >= 1
        # Pool overhead must not eat the scaling: per-worker efficiency
        # stays near 1 (exact multi-core shape is machine-dependent).
        assert scaling["pool_efficiency"] >= 0.7

    def test_process_benchmark_registered_and_tracked(self):
        from repro.bench.suites import load_builtin_suites

        load_builtin_suites()
        assert "fleet_scale_process" in registry.names("smoke")
        tracked = self.load()["benchmarks"]["fleet_scale_process"]
        assert tracked["homes_per_sec"] > 0
        assert "events_per_sec" not in tracked  # events fire in workers
