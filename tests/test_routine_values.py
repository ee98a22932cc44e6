"""A routine is a value its invocations share.

``SafeHome.invoke(name)`` and the dispatcher submit the bank's
``Routine`` itself: N runs of one routine share its command list and
the footprint derived from it.  That is sound only because the engine
never mutates a routine or a command after construction.  The copying
``instantiate`` the bank used to hand every invocation lives on here,
and only here, as the reference; the shared path must agree with it
exactly, and must leave every registered routine as it was registered:

* a served two-home hub over the menu, with scripted device failures
  (aborts, rollbacks, OCC retries) and a dict-valued command with an
  explicit undo value, gives the same final report and oracle reports
  under every visibility model and plan strategy;
* every bank routine equals a deep copy taken at registration after
  that run;
* dispatcher triggers label their own runs, never the bank entry;
* invoking by name allocates no ``Routine`` or ``Command``;
* the served report and oracle verdict per model still match
  ``tests/fixtures/serve-golden.json`` (generated before routines were
  shared; regenerate with scripts/gen_serve_golden.py).
"""

import copy
import dataclasses
import gc
import json
import sys
from pathlib import Path

import pytest

from repro.core.command import Command
from repro.core.controller import RoutineStatus
from repro.core.routine import Routine
from repro.hub.dispatcher import Dispatcher
from repro.hub.safehome import SafeHome
from repro.serve import ServeConfig, ServeHub, build_serve_home
from repro.serve import hub as serve_hub
from repro.serve.loadgen import run_closed_loop
from repro.sim.random import derive_seed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import gen_serve_golden  # noqa: E402

MODELS = ("wv", "gsv", "psv", "ev", "occ")
EXECUTIONS = ("serial", "parallel")

#: A scene whose dict-valued light write is rolled back when the AC it
#: also needs is down (its undo value is a dict too).
SCENE = {"routineName": "scene", "user": "menu", "commands": [
    {"device": "living-light", "action": {"level": 3, "tint": ["warm"]},
     "undoAction": {"level": 0, "tint": []}, "durationSec": 0.2},
    {"device": "living-ac", "action": "ON", "durationSec": 0.5},
]}


# -- the copying definition (reference only) -----------------------------------

_ATOMS = (str, int, float, bool, type(None))


def ref_instantiate(bank, name):
    """A fresh copy of a bank routine for one invocation."""
    template = bank.get(name)
    commands = [copy.copy(command) for command in template.commands]
    for command in commands:
        if not isinstance(command.value, _ATOMS):
            command.value = copy.deepcopy(command.value)
        if not isinstance(command.undo_value, _ATOMS):
            command.undo_value = copy.deepcopy(command.undo_value)
    return dataclasses.replace(template, commands=commands)


def ref_resolve(home, routine):
    if isinstance(routine, str):
        return ref_instantiate(home.bank, routine)
    return serve_hub._resolve(home, routine)


# -- a served run with failures ------------------------------------------------


def served_run(model, execution, seed=11, per_tenant=12):
    """Serve a failure-laden closed loop; return the hub and, per home,
    deep copies of its bank taken at registration."""
    homes, registered = {}, {}
    for i in range(2):
        home = build_serve_home(model=model, execution=execution,
                                seed=derive_seed(seed, f"home-{i}"))
        home.register_routine_spec(SCENE)
        home.plan_failure("living-ac", fail_at=0.05, restart_at=9.0)
        home.plan_failure("bed-window", fail_at=6.0, restart_at=14.0)
        registered[f"home-{i}"] = {routine.name: copy.deepcopy(routine)
                                   for routine in home.bank}
        homes[f"home-{i}"] = home
    hub = ServeHub(homes, ServeConfig(admit_batch=4))
    for i in range(8):
        hub.add_tenant(f"t{i}")
    for i in range(8):
        hub.submit(f"t{i}", "scene")
    run_closed_loop(hub, per_tenant=per_tenant, seed=seed)
    return hub, registered


def observed(hub):
    return (hub.final_report_json(),
            {name: report.to_dict()
             for name, report in hub.oracle_reports().items()})


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("model", MODELS)
def test_shared_routines_serve_what_copies_served(model, execution):
    shared, registered = served_run(model, execution)
    runs = [run for result in shared.results().values()
            for run in result.runs]
    # The run exercises what a shared value could get wrong: aborts and
    # the scene's dict write rolled back (WV does neither).
    if model != "wv":
        assert any(run.status is RoutineStatus.ABORTED for run in runs)
        assert any(run.name == "scene" and run.executions
                   and run.executions[0].rolled_back for run in runs)
    if model == "occ":
        assert any(run.invocation != run.routine_id for run in runs)
    for name, home in shared.homes.items():
        for routine in home.bank:
            assert routine == registered[name][routine.name]
        assert home.bank.get("scene").commands[0].value == \
            {"level": 3, "tint": ["warm"]}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serve_hub, "_resolve", ref_resolve)
        copied, _ = served_run(model, execution)
    assert observed(shared) == observed(copied)


@pytest.mark.parametrize("model", gen_serve_golden.MODELS)
def test_served_run_matches_the_golden(model):
    golden = json.loads(gen_serve_golden.GOLDEN_PATH.read_text())
    assert gen_serve_golden.build_entry(model) == golden[model]


def test_dispatcher_labels_runs_not_the_bank_entry():
    home = SafeHome(visibility="ev")
    home.add_device("plug", "p0")
    home.register_routine(Routine(name="tick", commands=[
        Command(device_id=0, value="ON", duration=1.0)]))
    dispatcher = Dispatcher(home.sim, home.registry, home.bank,
                            home.controller)
    dispatcher.every("tick", period=5.0, count=2, trigger_name="morning")
    dispatcher.every("tick", period=5.0, count=2, trigger_name="evening")
    home.run()
    triggers = sorted(firing.trigger_name for firing in dispatcher.firings)
    assert triggers == ["evening", "evening", "morning", "morning"]
    assert home.bank.get("tick").trigger == ""
    assert all(firing.run.routine is home.bank.get("tick")
               for firing in dispatcher.firings)


def test_invoking_by_name_allocates_no_routine_or_command():
    home = build_serve_home(model="ev", seed=3)
    home.invoke("cool-living")

    def live():
        counts = {Routine: 0, Command: 0}
        for obj in gc.get_objects():
            kind = type(obj)
            if kind in counts:
                counts[kind] += 1
        return counts

    gc.collect()
    before = live()
    runs = [home.invoke("cool-living") for _ in range(1000)]
    after = live()
    assert len(runs) == 1000
    assert after == before
