"""Edge-case tests for the controller base machinery: abort-pending
in-flight handling, read commands, reconciliation, bookkeeping."""

import pytest

from repro.core.command import Command
from repro.core.controller import RoutineStatus
from repro.core.routine import Routine
from repro.core.visibility import VisibilityModel
from repro.errors import SafeHomeError
from tests.conftest import Home, routine


class TestAbortPending:
    def test_abort_waits_for_inflight_command(self):
        """request_abort during a command defers until the command
        resolves (an API call cannot be recalled)."""
        home = Home(model="ev", n_devices=2)
        run = home.submit(routine("r", [(0, "ON", 10.0)]))
        home.sim.call_at(3.0, home.controller.request_abort, run, "test")
        home.run()
        assert run.status is RoutineStatus.ABORTED
        assert run.abort_reason == "test"
        # The in-flight command finished before the abort processed.
        assert run.executions[0].finished_at is not None
        assert run.finish_time >= run.executions[0].finished_at

    def test_second_abort_reason_not_overwritten(self):
        home = Home(model="ev", n_devices=1)
        run = home.submit(routine("r", [(0, "ON", 10.0)]))
        home.sim.call_at(3.0, home.controller.request_abort, run, "first")
        home.sim.call_at(4.0, home.controller.request_abort, run,
                         "second")
        home.run()
        assert run.abort_reason == "first"

    def test_abort_after_done_is_noop(self):
        home = Home(model="ev", n_devices=1)
        run = home.submit(routine("r", [(0, "ON", 1.0)]))
        home.run()
        home.controller.abort(run, "too late")
        assert run.status is RoutineStatus.COMMITTED


class TestReadCommands:
    def test_read_observes_current_state(self):
        home = Home(model="ev", n_devices=1)
        home.registry.get(0).state = "PRESET"
        reader = Routine(name="reader", commands=[
            Command(device_id=0, is_read=True)])
        run = home.submit(reader)
        home.run()
        assert run.status is RoutineStatus.COMMITTED
        assert run.executions[0].observed == "PRESET"

    def test_read_on_failed_device_aborts_must(self):
        home = Home(model="ev", n_devices=1)
        home.registry.get(0).fail()
        reader = Routine(name="reader", commands=[
            Command(device_id=0, is_read=True)])
        run = home.submit(reader)
        home.run()
        assert run.status is RoutineStatus.ABORTED

    def test_reads_do_not_change_state_or_log(self):
        home = Home(model="ev", n_devices=1)
        reader = Routine(name="reader", commands=[
            Command(device_id=0, is_read=True)])
        home.submit(reader)
        result = home.run()
        assert result.device_write_logs[0] == []


class TestReconciliation:
    def test_no_reconcile_when_disabled(self):
        from repro.core.controller import ControllerConfig
        config = ControllerConfig(reconcile_on_restart=False)
        home = Home(model="ev", n_devices=2, config=config)
        run = home.submit(routine("r", [(0, "ON", 2.0), (1, "ON", 6.0)]))
        home.detect_failure(1, at=4.0)
        home.detect_restart(1, at=20.0)
        result = home.run()
        assert run.status is RoutineStatus.ABORTED
        # Device 1 keeps its mid-routine ON state: nobody fixed it.
        assert result.end_state[1] == "ON"

    def test_reconcile_applies_latest_pending_value(self):
        home = Home(model="ev", n_devices=2)
        run = home.submit(routine("r", [(0, "ON", 2.0), (1, "ON", 6.0)]))
        home.detect_failure(1, at=4.0)
        home.detect_restart(1, at=30.0)
        result = home.run()
        assert result.end_state[1] == "OFF"
        sources = [s for (_t, _v, s) in result.device_write_logs[1]]
        assert ("reconcile", 1) in sources


class TestBookkeeping:
    def test_run_by_id_and_is_finished(self):
        home = Home(model="ev", n_devices=1)
        run = home.submit(routine("r", [(0, "ON", 1.0)]))
        assert home.controller.run_by_id(run.routine_id) is run
        assert not home.controller.is_finished(run.routine_id)
        home.run()
        assert home.controller.is_finished(run.routine_id)
        for bad in (999, -1, len(home.controller.runs)):
            with pytest.raises(SafeHomeError):
                home.controller.run_by_id(bad)
            with pytest.raises(SafeHomeError):
                home.controller.is_finished(bad)

    def test_routine_ids_increment(self):
        home = Home(model="ev", n_devices=1)
        runs = [home.submit(routine(f"r{i}", [(0, "ON", 0.5)]),
                            when=i * 1.0) for i in range(3)]
        assert [r.routine_id for r in runs] == [0, 1, 2]

    def test_active_runs_and_all_done(self):
        home = Home(model="ev", n_devices=1)
        home.submit(routine("r", [(0, "ON", 1.0)]))
        assert len(home.controller.active_runs()) == 1
        assert not home.controller.all_done()
        home.run()
        assert home.controller.active_runs() == []
        assert home.controller.all_done()

    def test_wait_time_and_latency_properties(self):
        home = Home(model="gsv", n_devices=1)
        a = home.submit(routine("a", [(0, "ON", 5.0)]), when=0.0)
        b = home.submit(routine("b", [(0, "OFF", 5.0)]), when=0.0)
        home.run()
        assert a.wait_time == pytest.approx(0.0, abs=0.1)
        assert b.wait_time > 4.0
        assert a.latency > 5.0
        aborted = home.controller.submit(
            routine("c", [(0, "ON", 1.0)]), when=home.sim.now)
        home.controller.abort(aborted, "test")
        assert aborted.latency is None


class TestRunRecordShape:
    """One run record is retained per routine ever run, so a finished
    run keeps no ``__dict__`` and no per-run set."""

    @pytest.mark.parametrize("model", ["ev", "psv"])
    def test_finished_runs_hold_no_dict_and_no_set(self, model):
        home = Home(model=model, n_devices=3)
        home.submit(routine("a", [(0, "ON", 1.0), (1, "ON", 10.0)]),
                    when=0.0)
        home.submit(routine("b", [(2, "ON", 1.0), (0, "OFF", 1.0)]),
                    when=0.5)
        home.detect_failure(0, at=5.0)   # after a's last touch of 0
        home.detect_restart(0, at=20.0)
        result = home.run()
        assert result.runs and all(run.done for run in result.runs)
        for run in result.runs:
            assert not hasattr(run, "__dict__")
            assert not any(isinstance(getattr(run, name), (set, dict))
                           for name in type(run).__slots__)

    def test_done_on_marks_the_last_touch_per_device(self):
        home = Home(model="ev", n_devices=3)
        run = home.submit(routine("r", [(2, "ON", 1.0), (2, "OFF", 1.0),
                                        (0, "ON", 5.0)]))
        home.run(until=0.5)
        assert [run.done_on(d) for d in range(3)] == [False] * 3
        home.run(until=3.0)
        assert [run.done_on(d) for d in range(3)] == [False, False, True]
        home.run()
        assert [run.done_on(d) for d in range(3)] == [True, False, True]


class TestVisibilityParsing:
    def test_parse_aliases(self):
        assert VisibilityModel.parse("EV") is VisibilityModel.EV
        assert VisibilityModel.parse(VisibilityModel.WV) is \
            VisibilityModel.WV

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            VisibilityModel.parse("acid")


class TestRunResultHelpers:
    def test_rollback_overheads_and_abort_rate(self):
        home = Home(model="gsv", n_devices=2)
        good = home.submit(routine("good", [(0, "ON", 1.0)]), when=0.0)
        bad = home.submit(routine("bad", [(0, "OFF", 1.0),
                                          (1, "ON", 5.0)]), when=0.0)
        home.detect_failure(1, at=4.0)
        result = home.run()
        assert result.abort_rate == 0.5
        overheads = result.rollback_overheads()
        assert len(overheads) == 1
        assert 0 < overheads[0] <= 1.0
