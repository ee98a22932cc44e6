"""One hub under every run.

The figures, the ablations, ``repro scenario`` / ``run-trace``, the
other registered sweeps and the hunter all reach a home through
``experiments.runner.run_workload``, and that is a trial loop over
:class:`SafeHome` — the stack the fleet, the serve hub and the durable
hub run.  These tests pin the rows every sweep reports, hold the two
doors (runner, facade) to one result, and read the source so a second
hand-wired assembly cannot grow back.
"""

import ast
import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentSetup, run_workload
from repro.hub.safehome import SafeHome
from repro.sim.random import RandomStreams
from repro.workloads.chaos import chaos_workload
from repro.workloads.micro import MicroParams, generate_microbenchmark

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import gen_sweeps_golden  # noqa: E402

MODELS = ("wv", "gsv", "psv", "ev", "occ")


class TestGoldenSweepRows:
    """What every registered sweep reports is pinned field by field
    (regenerate with scripts/gen_sweeps_golden.py — a diff there
    changes a figure and needs a reason).  ``failures`` (Fig 13) is
    most of the sweeps' run time: ``--check`` in scripts/check.sh
    covers it."""

    @pytest.mark.parametrize(
        "name", [name for name in gen_sweeps_golden.names()
                 if name != "failures"])
    def test_deterministic_fields(self, name):
        golden = json.loads(gen_sweeps_golden.GOLDEN_PATH.read_text())
        assert gen_sweeps_golden.build_entry(name) == golden[name]

    def test_fixture_covers_the_suite(self):
        golden = json.loads(gen_sweeps_golden.GOLDEN_PATH.read_text())
        assert sorted(golden) == gen_sweeps_golden.names()


class TestTheTwoDoorsStayOne:
    """``run_workload`` and a directly driven ``SafeHome`` are the same
    run.  The chaos workload scripts a failure and a restart, so the
    detector path is on it."""

    SEED, TRIAL = 5, 2

    @pytest.mark.parametrize("execution", ("serial", "parallel"))
    @pytest.mark.parametrize("model", MODELS)
    def test_runner_equals_facade(self, model, execution):
        setup = ExperimentSetup(model=model, execution=execution,
                                seed=self.SEED)
        result, report, controller = run_workload(
            chaos_workload(self.SEED), setup, trial=self.TRIAL)

        home = SafeHome(
            visibility=model, execution=execution,
            seed=RandomStreams(self.SEED).spawn(self.TRIAL).seed)
        home.load_workload(chaos_workload(self.SEED))
        direct = home.run()

        assert report.row() == home.report().row()
        assert result.end_state == direct.end_state
        assert controller.sim.events_processed == \
            home.sim.events_processed
        assert result.detection_events, "the detector never fired"

    def test_calibrated_failure_plans_are_what_the_home_is_armed_with(
            self, monkeypatch):
        """§7.4: devices fail "at a random point during the run", so a
        micro workload's failure times are rescaled by a failure-free
        dry run's makespan before the measured home loads them."""
        workload = generate_microbenchmark(
            MicroParams(routines=20, concurrency=4, devices=8,
                        failed_device_pct=25.0, restart_after_s=30.0),
            seed=9)
        assert workload.meta["scale_failures"] and workload.failure_plans
        setup = ExperimentSetup(model="ev", seed=9, check_final=False)

        homes = []
        load = SafeHome.load_workload

        def recording_load(home, loaded):
            homes.append(home)
            load(home, loaded)

        monkeypatch.setattr(SafeHome, "load_workload", recording_load)
        run_workload(workload, setup, trial=1)
        dry, measured = homes

        assert dry.injector.plans == []
        scale = max(dry.last_result.makespan, 1.0) \
            / workload.meta["failure_horizon"]
        assert scale != 1.0
        assert measured.injector.plans == [
            dataclasses.replace(
                plan, fail_at=plan.fail_at * scale,
                restart_at=plan.fail_at * scale
                + (plan.restart_at - plan.fail_at))
            for plan in workload.failure_plans]


def _calls(path: Path, name: str) -> int:
    """How many times ``path`` calls a function or class named ``name``
    (read from the syntax tree: docstring examples do not count)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
        for node in ast.walk(tree))


@pytest.mark.parametrize("name,allowed", [
    ("make_controller", {"hub/safehome.py"}),
    ("Simulator", {"hub/safehome.py"}),
])
def test_only_the_hub_assembles_a_home(name, allowed):
    package = REPO_ROOT / "src" / "repro"
    callers = {str(path.relative_to(package))
               for path in package.rglob("*.py") if _calls(path, name)}
    assert callers == allowed, (
        f"{name}(...) is called outside the hub: build a SafeHome "
        f"instead of wiring a second stack ({sorted(callers - allowed)})")
