"""The controller's map of unfinished runs.

``Controller.all_done()`` and ``active_runs()`` read an insertion-ordered
map that ``submit`` fills and the one finish point (``_settle``, under
``commit`` and ``abort``) empties, instead of scanning every run ever
submitted.  After every event of homes with device failures, a cancel
before arrival, OCC retries and a hub crash + ``recover()``, both must
equal their full-scan definitions.  The failure detector asks
``all_done()`` on every tick; a tick must not iterate ``controller.runs``
at all.
"""

import pytest

from repro.core.command import Command
from repro.core.routine import Routine
from repro.hub.failure_detector import FailureDetector
from repro.hub.safehome import SafeHome
from repro.workloads.micro import MicroParams, generate_microbenchmark

MODELS = ("wv", "gsv", "psv", "ev", "occ")


def check_against_full_scan(controller):
    """Assert both views equal their definitions over ``runs``."""
    active = [run for run in controller.runs if not run.done]
    assert controller.active_runs() == active
    assert controller.all_done() == all(run.done for run in controller.runs)


def watch(home):
    """Check the views after every event the home's simulator runs."""
    checked = []

    def hook():
        check_against_full_scan(home.controller)
        checked.append(1)

    home.sim.add_post_event_hook(hook)
    return checked


def micro_home(model, seed=1, routines=24, concurrency=8, failures=True,
               **kwargs):
    params = MicroParams(routines=routines, concurrency=concurrency,
                         zipf_alpha=0.8)
    home = SafeHome(visibility=model, seed=seed, **kwargs)
    home.load_workload(generate_microbenchmark(params, seed=seed))
    if failures:
        home.plan_failure(home.registry.get(0).name, 5.0, restart_at=40.0)
        home.plan_failure(home.registry.get(1).name, 20.0)
    return home


@pytest.mark.parametrize("execution", ["serial", "parallel"])
@pytest.mark.parametrize("model", MODELS)
def test_views_match_full_scan_with_failures(model, execution):
    home = micro_home(model, execution=execution)
    checked = watch(home)
    result = home.run()
    assert checked and home.controller.all_done()
    assert [kind for kind, _, _ in result.detection_events] == \
        ["failure", "failure", "restart"]


@pytest.mark.parametrize("model", MODELS)
def test_cancel_before_arrival(model):
    home = SafeHome(visibility=model)
    home.add_device("plug", "p0")
    home.add_device("plug", "p1")
    scene = Routine(name="scene", commands=[
        Command(device_id=0, value="ON", duration=1.0),
        Command(device_id=1, value="ON", duration=1.0)])
    early = home.invoke(scene)
    late = home.invoke(scene, at=5.0)
    home.cancel(late)
    check_against_full_scan(home.controller)
    assert home.controller.active_runs() == [early]
    checked = watch(home)
    home.run()
    assert checked and late.status.value == "aborted"
    assert home.controller.active_runs() == []


def test_occ_retries():
    home = micro_home("occ", routines=40, concurrency=16, failures=False)
    checked = watch(home)
    home.run()
    assert checked
    assert home.controller.retries_used      # retries were submitted


@pytest.mark.parametrize("mode", ["replay", "policy"])
@pytest.mark.parametrize("model", ["ev", "psv"])
def test_crash_and_recover(model, mode):
    home = micro_home(model, durability=True)
    home.crash(after_events=300)
    checked = watch(home)
    home.run()
    assert home.crashed and checked
    home.recover(mode=mode)
    check_against_full_scan(home.controller)
    assert not home.controller.all_done()
    checked = watch(home)
    home.run()
    assert checked and home.controller.all_done()


class CountingRuns(list):
    """A run list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_detector_ticks_never_scan_the_runs(monkeypatch):
    """A failure plan keeps the detector ticking until every run is
    done; no tick may walk ``controller.runs`` (it used to, from the
    first run ever submitted, on every tick)."""
    home = micro_home("ev", routines=100, failures=False)
    home.plan_failure(home.registry.get(0).name, 10.0, restart_at=20.0)
    controller = home.controller
    controller.runs = runs = CountingRuns(controller.runs)
    ticks = []
    tick = FailureDetector._tick

    def counted_tick(detector):
        before = runs.iterations
        tick(detector)
        ticks.append(runs.iterations - before)

    monkeypatch.setattr(FailureDetector, "_tick", counted_tick)
    home.run()
    assert len(ticks) > 100
    assert sum(ticks) == 0
