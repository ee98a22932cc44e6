"""Tests for the SafeHome hub facade, routine bank and failure detector."""

import pytest

from repro.core.controller import RoutineStatus
from repro.core.routine import Routine
from repro.core.command import Command
from repro.errors import RoutineSpecError
from repro.hub.routine_bank import RoutineBank
from repro.hub.safehome import SafeHome


def plain_routine(name="r", device=0):
    return Routine(name=name, commands=[
        Command(device_id=device, value="ON", duration=1.0)])


class TestRoutineBank:
    def test_register_and_get(self):
        bank = RoutineBank()
        bank.register(plain_routine("a"))
        assert "a" in bank
        assert bank.get("a").name == "a"
        assert bank.names() == ["a"]

    def test_duplicate_rejected_unless_replace(self):
        bank = RoutineBank()
        bank.register(plain_routine("a"))
        with pytest.raises(RoutineSpecError):
            bank.register(plain_routine("a"))
        bank.register(plain_routine("a"), replace=True)

    def test_unknown_name(self):
        with pytest.raises(RoutineSpecError):
            RoutineBank().get("missing")

    def test_invocations_share_the_bank_routine(self):
        home = SafeHome(visibility="ev")
        home.add_device("plug", "p0")
        home.add_device("plug", "p1")
        home.register_routine(Routine(name="scene", commands=[
            Command(device_id=0, value="ON", duration=1.0),
            Command(device_id=1, value="ON", duration=1.0)]))
        run_a = home.invoke("scene")
        run_b = home.invoke("scene")
        assert run_a is not run_b
        assert run_a.routine is run_b.routine is home.bank.get("scene")
        footprint = run_a.routine.footprint
        assert run_b.routine.footprint is footprint
        assert (footprint.last_index(0), footprint.last_index(1)) == (0, 1)


class TestSafeHomeFacade:
    def test_quickstart_flow(self):
        home = SafeHome(visibility="ev", scheduler="timeline")
        home.add_device("window", "living-window")
        home.add_device("ac", "living-ac")
        home.register_routine_spec({
            "routineName": "cooling",
            "commands": [
                {"device": "living-window", "action": "CLOSED",
                 "durationSec": 2},
                {"device": "living-ac", "action": "ON", "durationSec": 2},
            ],
        })
        home.invoke("cooling")
        result = home.run()
        assert result.runs[0].status is RoutineStatus.COMMITTED
        assert home.state_of("living-window") == "CLOSED"
        assert home.state_of("living-ac") == "ON"

    def test_invoke_routine_object_directly(self):
        home = SafeHome(visibility="wv")
        home.add_device("plug", "p")
        run = home.invoke(plain_routine("adhoc"))
        home.run()
        assert run.status is RoutineStatus.COMMITTED

    def test_invoke_repeating_trigger(self):
        home = SafeHome(visibility="ev")
        home.add_device("plug", "p")
        home.register_routine(plain_routine("tick"))
        runs = home.invoke_repeating("tick", start_at=0.0, period=10.0,
                                     count=3)
        home.run()
        assert [round(r.submit_time) for r in runs] == [0, 10, 20]
        assert all(r.status is RoutineStatus.COMMITTED for r in runs)

    def test_planned_failure_aborts_and_detector_sees_it(self):
        home = SafeHome(visibility="ev")
        home.add_device("plug", "a")
        home.add_device("plug", "b")
        home.register_routine_spec({
            "routineName": "r",
            "commands": [
                {"device": "a", "action": "ON", "durationSec": 10},
                {"device": "b", "action": "ON", "durationSec": 1},
            ],
        })
        home.plan_failure("a", fail_at=3.0)
        home.invoke("r")
        result = home.run()
        assert result.runs[0].status is RoutineStatus.ABORTED
        assert ("failure", 0) in {(kind, dev) for kind, dev, _t
                                  in result.detection_events}

    def test_detector_detects_restart(self):
        home = SafeHome(visibility="ev")
        home.add_device("plug", "a")
        home.register_routine_spec({
            "routineName": "r",
            "commands": [{"device": "a", "action": "ON",
                          "durationSec": 30}],
        })
        home.plan_failure("a", fail_at=5.0, restart_at=8.0)
        home.invoke("r")
        result = home.run()
        kinds = [kind for kind, _d, _t in result.detection_events]
        assert "failure" in kinds and "restart" in kinds

    def test_detection_latency_bounded_by_ping_period(self):
        home = SafeHome(visibility="ev", detector_ping_period_s=1.0)
        home.add_device("plug", "a")
        home.register_routine_spec({
            "routineName": "r",
            "commands": [{"device": "a", "action": "ON",
                          "durationSec": 30}],
        })
        home.plan_failure("a", fail_at=5.0)
        home.invoke("r")
        result = home.run()
        failure_events = [t for kind, _d, t in result.detection_events
                          if kind == "failure"]
        assert failure_events and failure_events[0] - 5.0 < 2.5

    def test_unknown_visibility_rejected(self):
        with pytest.raises(ValueError):
            SafeHome(visibility="quantum")
