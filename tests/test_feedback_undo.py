"""Tests for the user feedback log and undo handlers."""

import pytest

from repro.core.command import Command
from repro.core.routine import Routine
from repro.core.undo import UndoRegistry, quiesce_handler
from repro.hub.log import FeedbackKind, FeedbackLog
from repro.hub.safehome import SafeHome
from tests.conftest import Home, routine


class TestFeedbackLog:
    def test_commit_entry(self):
        home = Home(model="ev", n_devices=1)
        log = FeedbackLog(home.controller)
        home.submit(routine("r", [(0, "ON", 1.0)]))
        home.run()
        kinds = [entry.kind for entry in log.entries]
        assert kinds == [FeedbackKind.ROUTINE_COMMITTED]
        assert "1 commands" in log.entries[0].detail

    def test_abort_and_rollback_entries(self):
        home = Home(model="ev", n_devices=2)
        log = FeedbackLog(home.controller)
        home.registry.get(1).fail()
        home.submit(routine("r", [(0, "ON", 1.0), (1, "ON", 1.0)]))
        home.run()
        kinds = [entry.kind for entry in log.entries]
        assert FeedbackKind.ROUTINE_ABORTED in kinds
        assert FeedbackKind.COMMANDS_ROLLED_BACK in kinds
        assert log.aborts()[0].routine == "r"

    def test_best_effort_skip_entry(self):
        home = Home(model="ev", n_devices=2)
        log = FeedbackLog(home.controller)
        home.registry.get(0).fail()
        home.submit(routine("r", [(0, "ON", 1.0, False),
                                  (1, "ON", 1.0)]))
        home.run()
        kinds = [entry.kind for entry in log.entries]
        assert FeedbackKind.ROUTINE_COMMITTED in kinds
        assert FeedbackKind.COMMAND_SKIPPED in kinds

    def test_detection_entries_and_render(self):
        home = Home(model="ev", n_devices=2)
        log = FeedbackLog(home.controller)
        home.submit(routine("r", [(0, "ON", 10.0)]))
        home.detect_failure(1, at=2.0)
        home.detect_restart(1, at=4.0)
        home.run()
        log.record_detections()
        text = log.render()
        assert "device-failed" in text
        assert "device-restarted" in text
        # Entries are time-ordered in the rendering.
        times = [float(line.split("s]")[0].strip("[ "))
                 for line in text.splitlines()]
        assert times == sorted(times)


class TestFeedbackRenderedOnRead:
    def test_entries_are_pinned(self):
        """A commit, a best-effort skip, an abort with rollback, device
        failure and restart detections and a hub crash + recovery: the
        entries rendered on read equal the eagerly built ones."""
        home = SafeHome(visibility="ev", seed=5, durability=True)
        for type_name, name in (("window", "w"), ("ac", "a"),
                                ("light", "l"), ("plug", "p")):
            home.add_device(type_name, name)
        home.register_routine_spec({"routineName": "cool", "commands": [
            {"device": "w", "action": "CLOSED", "durationSec": 2},
            {"device": "a", "action": "ON", "durationSec": 3}]})
        home.register_routine_spec({"routineName": "scene", "commands": [
            {"device": "a", "action": "OFF", "durationSec": 1},
            {"device": "l", "action": "ON", "durationSec": 4}]})
        home.register_routine_spec({"routineName": "lamp", "commands": [
            {"device": "p", "action": "ON", "durationSec": 1,
             "priority": "BEST_EFFORT"},
            {"device": "w", "action": "OPEN", "durationSec": 1}]})
        home.plan_failure("l", fail_at=4.0, restart_at=8.0)
        home.plan_failure("p", fail_at=0.2, restart_at=30.0)
        home.invoke("cool")
        home.invoke("scene", at=0.5)
        home.invoke("lamp", at=3.0)
        home.invoke("cool", at=12.0)
        home.crash(at=6.0)
        home.run()
        home.recover()
        home.run()
        assert [e.render() for e in home.feedback.entries] == PINNED


PINNED = [
    "[     1.15s] device-failed    -                    device 3",
    "[     4.06s] committed        lamp                 2 commands, "
    "1 best-effort skipped",
    "[     4.06s] command-skipped  lamp                 device 3 "
    "unreachable (best-effort); you may re-execute it",
    "[     4.15s] device-failed    -                    device 2",
    "[     5.16s] committed        cool                 2 commands",
    "[     5.58s] aborted          scene                failure of "
    "device 2 mid-touch",
    "[     5.58s] rolled-back      scene                1 commands "
    "undone; you may re-initiate the routine",
    "[     6.00s] hub-crashed      -                    hub lost power; "
    "in-memory state gone, WAL survives",
    "[     6.00s] hub-restarted    -                    hub recovered "
    "from checkpoint + WAL replay (replay mode)",
    "[     8.05s] device-restarted -                    device 2",
    "[    17.14s] committed        cool                 2 commands",
]


class TestUndoRegistry:
    def test_default_is_prior_state(self):
        registry = UndoRegistry()
        command = Command(device_id=0, value="ON")
        assert registry.resolve(command, "OFF") == "OFF"

    def test_command_undo_value_wins(self):
        registry = UndoRegistry()
        registry.register(0, quiesce_handler("SAFE"))
        command = Command(device_id=0, value="ON", undo_value="EXPLICIT")
        assert registry.resolve(command, "OFF") == "EXPLICIT"

    def test_device_handler(self):
        registry = UndoRegistry()
        registry.register(3, quiesce_handler("DISARMED"))
        command = Command(device_id=3, value="BLARE")
        assert registry.resolve(command, "ARMED") == "DISARMED"

    def test_default_handler(self):
        registry = UndoRegistry()
        registry.register_default(lambda cmd, prior: f"undo-{prior}")
        command = Command(device_id=1, value="X")
        assert registry.resolve(command, "A") == "undo-A"

    def test_irreversible_command_rolls_back_via_handler(self):
        """The paper's 'blare a test alarm' case: undo parks the device
        in a safe state instead of replaying the prior value."""
        home = Home(model="ev", n_devices=2)
        home.controller.undo_registry.register(
            0, quiesce_handler("QUIESCED"))
        alarm_test = Routine(name="alarm-test", commands=[
            Command(device_id=0, value="BLARE", duration=2.0,
                    undoable=False),
            Command(device_id=1, value="ON", duration=10.0),
        ])
        run = home.submit(alarm_test)
        home.detect_failure(1, at=4.0)  # abort mid device-1 touch
        result = home.run()
        assert run.status.value == "aborted"
        assert result.end_state[0] == "QUIESCED"

    def test_undo_value_from_spec_applied_on_rollback(self):
        home = Home(model="gsv", n_devices=2)
        r = Routine(name="r", commands=[
            Command(device_id=0, value="RUN", duration=1.0,
                    undo_value="PARKED"),
            Command(device_id=1, value="ON", duration=5.0),
        ])
        run = home.submit(r)
        home.detect_failure(1, at=3.0)
        result = home.run()
        assert run.status.value == "aborted"
        assert result.end_state[0] == "PARKED"
