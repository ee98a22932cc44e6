"""Tier-1 tests for the unified benchmark subsystem (src/repro/bench).

Covers registry uniqueness, the one table every figure consumer reads
(``repro figures``, ``repro bench``, docs/benchmarks.md), BenchResult
JSON round-trip and determinism of the reported non-timing fields
across seeded runs.
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench import registry, runner, timing
from repro.bench.registry import BenchError, BenchSpec, benchmark, sweep
from repro.bench.result import SCHEMA, TIMING_FIELDS, BenchResult
from repro.bench.suites import load_builtin_suites
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


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

    def test_sweep_registers_the_driver_unchanged(self, scratch_registry):
        def driver(trials=10):
            """Two tables."""
            return {"left": [{"x": trials, "cdf": [1]}], "right": []}

        assert sweep("toy_sweep", "Toy", figure="figT", hide=("cdf",),
                     cli=registry.scaled_trials(5, 2),
                     trials=4)(driver) is driver
        spec = registry.figures()["figT"]
        assert spec.name == "toy_sweep"
        assert spec.description == "Toy: Two tables."
        assert spec.cli(20) == {"trials": 4} and spec.cli(3) == {"trials": 2}
        assert registry.call("toy_sweep") == \
            {"metrics": {"left": [{"x": 4}], "right": []}}

    def test_parts_run_inside_their_entry_only(self, scratch_registry):
        sweep("piece", "Piece", part_of="whole")(lambda trials=1: [])

        @benchmark("whole")
        def whole():
            return {}

        assert [spec.name for spec in registry.parts("whole")] == ["piece"]
        assert registry.names("full") == ["whole"]
        assert registry.call("piece") == {"metrics": {"rows": []}}

    def test_select_pattern_filter(self, scratch_registry):
        for name in ("fleet_scale", "fleet_mix", "recovery"):
            registry.register(BenchSpec(name=name, fn=lambda: {}))
        assert [s.name for s in registry.select(pattern="fleet*")] == \
            ["fleet_mix", "fleet_scale"]
        assert [s.name for s in registry.select(pattern="cover")] == \
            ["recovery"]

class TestOneTable:
    """Every consumer of a figure or sweep reads the one registry."""

    DOC_HEADING = "## Paper figure → benchmark name"

    def test_figure_ids_and_entries_map_one_to_one(self):
        load_builtin_suites()
        figures = registry.figures()
        entries = [spec for spec in registry._REGISTRY.values()
                   if spec.figure]
        assert len(entries) == len(figures) == 12
        for figure_id, spec in figures.items():
            assert registry.get(spec.name).figure == figure_id
        assert {spec.name for spec in registry.parts("ablations")} == \
            set(registry.get("ablations").params["sweeps"])
        assert set(registry.names("smoke")) < set(registry.names("full"))

    def test_unknown_figure_exits_2_and_lists_the_registry(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert str(sorted(registry.figures())) in capsys.readouterr().err

    def test_figures_cli_prints_the_rows_of_a_direct_driver_call(
            self, capsys):
        from repro.experiments import figures
        from repro.experiments.report import format_table

        assert main(["figures", "fig02", "fig14", "--trials", "5"]) == 0
        expected = "".join(
            f"\n== {title} ==\n{format_table(rows)}\n\n"
            for title, rows in (
                ("Fig 2", figures.fig02_example()),
                ("Fig 14", figures.fig14_schedulers(trials=2))))
        assert capsys.readouterr().out == expected

    def test_docs_table_lists_exactly_the_registered_names(self):
        load_builtin_suites()
        text = (REPO_ROOT / "docs" / "benchmarks.md").read_text()
        table = text.split(self.DOC_HEADING)[1].split("\n## ")[0]
        rows = [line.split("|")[2] for line in table.splitlines()
                if line.startswith("|") and "---" not in line][1:]
        documented = [name for cell in rows
                      for name in re.findall(r"`(\w+)`", cell)]
        assert sorted(documented) == sorted(registry._REGISTRY)


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


class TestRunner:
    def test_run_suite_merges_results(self, scratch_registry,
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

        Runs every smoke entry, the larger ones at shrunken parameters.
        """
        overrides = {"sim_dispatch": {"events": 2000},
                     "parallel_exec": {"routines": 3, "width": 4},
                     "synth_throughput": {"specs": 2, "routines": 8}}

        def snapshot():
            summary = runner.run_suite(suite="smoke", warmup=0, repeats=1,
                                       overrides=overrides)
            return {result.name: result.deterministic_dict()
                    for result in runner.summary_results(summary)}

        first, second = snapshot(), snapshot()
        assert first == second
        assert sorted(first) == registry.names("smoke")
        # Virtual time and event counts are reported, not wall time.
        assert first["sim_dispatch"]["virtual_s"] > 0
        assert first["synth_throughput"]["events"] > 0


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
