"""Tier-1 tests for the sweep registry (src/repro/bench).

Covers registry uniqueness and the one table every figure consumer
reads (``repro figures``, ``repro ablations``, docs/benchmarks.md).
What each sweep reports is pinned by tests/fixtures/sweeps-golden.json
(tests/test_one_hub.py).
"""

import re
from pathlib import Path

import pytest

from repro.bench import registry
from repro.bench.registry import BenchError, sweep
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def scratch_registry():
    """Run a test against an empty registry, restoring the real one."""
    registry._load()
    saved = dict(registry._REGISTRY)
    registry._REGISTRY.clear()
    try:
        yield registry
    finally:
        registry._REGISTRY.clear()
        registry._REGISTRY.update(saved)


class TestRegistry:
    def test_register_and_call(self, scratch_registry):
        @sweep("toy", "Toy", n=4)
        def toy(n=1):
            return [{"n_squared": n * n}]

        assert registry.get("toy").fn is toy
        assert registry.call("toy")["metrics"]["rows"] == \
            [{"n_squared": 16}]
        assert registry.call("toy", n=5)["metrics"]["rows"] == \
            [{"n_squared": 25}]

    def test_duplicate_name_rejected(self, scratch_registry):
        sweep("dup", "First")(lambda: [])
        with pytest.raises(BenchError, match="duplicate"):
            sweep("dup", "Second")(lambda: [])

    def test_non_dict_outcome_rejected(self, scratch_registry):
        sweep("bad_outcome", "Bad")(lambda: [1, 2, 3])
        with pytest.raises(BenchError, match="expected rows"):
            registry.call("bad_outcome")

    def test_sweep_registers_the_driver_unchanged(self, scratch_registry):
        def driver(trials=10):
            """Two tables."""
            return {"left": [{"x": trials, "cdf": [1]}], "right": []}

        assert sweep("toy_sweep", "Toy", figure="figT", hide=("cdf",),
                     cli=registry.scaled_trials(5, 2),
                     trials=4)(driver) is driver
        spec = registry.figures()["figT"]
        assert spec.name == "toy_sweep" and spec.title == "Toy"
        assert spec.cli(20) == {"trials": 4} and spec.cli(3) == {"trials": 2}
        assert registry.call("toy_sweep") == \
            {"metrics": {"left": [{"x": 4}], "right": []}}

    def test_parts_run_inside_their_entry_only(self, scratch_registry):
        sweep("piece", "Piece", part_of="whole")(lambda trials=1: [])
        sweep("whole", "Whole")(lambda: {})

        assert [spec.name for spec in registry.parts("whole")] == ["piece"]
        assert list(registry.sweeps()) == ["whole"]
        assert registry.call("piece") == {"metrics": {"rows": []}}


class TestOneTable:
    """Every consumer of a figure or sweep reads the one registry."""

    DOC_HEADING = "## Paper figure → sweep name"

    def test_figure_ids_and_entries_map_one_to_one(self):
        figures = registry.figures()
        entries = [spec for spec in registry._REGISTRY.values()
                   if spec.figure]
        assert len(entries) == len(figures) == 12
        for figure_id, spec in figures.items():
            assert registry.get(spec.name).figure == figure_id
        assert {spec.name for spec in registry.parts("ablations")} == \
            set(registry.get("ablations").params["sweeps"])

    def test_unknown_figure_exits_2_and_lists_the_registry(self, capsys):
        assert main(["figures", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: unknown sweep 'fig99'")
        assert str(sorted(registry.figures())) in err

    def test_figures_cli_runs_a_sweep_by_name(self, capsys):
        """A name that is no figure id is looked up among the sweeps."""
        from repro.bench.suites import perf
        from repro.experiments.report import format_table

        assert main(["figures", "fleet_scale_sweep"]) == 0
        rows = perf.fleet_scale_sweep()
        assert capsys.readouterr().out == \
            f"\n== Fleet scale-out ==\n{format_table(rows)}\n\n"

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

    def test_insertion_sweep_owns_its_stopwatch(self):
        """Fig 15d times the scheduler's placement search itself: the
        milliseconds are ``timing``, the shape is ``metrics``."""
        outcome = registry.call("scheduler_insertion", routine_sizes=(1, 4))
        rows = outcome["timing"]["rows"]
        assert [row["commands"] for row in rows] == [1, 4]
        assert all(row["mean_insert_ms"] > 0 for row in rows)
        assert outcome["metrics"] == {"routine_sizes": [1, 4],
                                      "insertions": 2}

    def test_docs_table_lists_exactly_the_registered_names(self):
        registry.figures()                       # loads the registry
        text = (REPO_ROOT / "docs" / "benchmarks.md").read_text()
        table = text.split(self.DOC_HEADING)[1].split("\n## ")[0]
        rows = [line.split("|")[2] for line in table.splitlines()
                if line.startswith("|") and "---" not in line][1:]
        documented = [name for cell in rows
                      for name in re.findall(r"`(\w+)`", cell)]
        assert sorted(documented) == sorted(registry._REGISTRY)
