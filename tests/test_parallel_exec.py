"""Integration tests for the parallel plan strategy across all five
visibility models: correctness (congruence / serializability), the
fan-out speedup, determinism and abort handling mid-plan."""

import pytest

from repro.core.command import Command
from repro.core.controller import ControllerConfig, RoutineStatus
from repro.core.routine import Routine
from repro.experiments.runner import ExperimentSetup, run_workload
from repro.workloads.fanout import fanout_scenario
from repro.workloads.scenarios import morning_scenario, party_scenario
from tests.conftest import Home, routine

MODELS = ("wv", "gsv", "sgsv", "psv", "ev", "occ")
LOCKING_MODELS = ("gsv", "sgsv", "psv", "ev", "occ")


def run_scenario(factory, model, execution, seed=0, check_final=True):
    setup = ExperimentSetup(model=model, seed=seed,
                            check_final=check_final,
                            config=ControllerConfig(execution=execution))
    return run_workload(factory(seed=seed), setup)


class TestCongruenceUnderParallel:
    @pytest.mark.parametrize("model", LOCKING_MODELS)
    @pytest.mark.parametrize("factory", [morning_scenario, party_scenario],
                             ids=["morning", "party"])
    def test_final_congruent(self, model, factory):
        _result, report, _c = run_scenario(factory, model, "parallel")
        assert report.final_congruent is True

    @pytest.mark.parametrize("model", MODELS)
    def test_fanout_congruent_and_all_commit(self, model):
        result, report, _c = run_scenario(fanout_scenario, model,
                                          "parallel")
        assert len(result.aborted) == 0
        assert report.final_congruent is True

    @pytest.mark.parametrize("scheduler", ["fcfs", "jit", "timeline"])
    def test_ev_parallel_all_schedulers(self, scheduler):
        setup = ExperimentSetup(
            model="ev", scheduler=scheduler, seed=0,
            config=ControllerConfig(execution="parallel"))
        _result, report, controller = run_workload(
            morning_scenario(seed=0), setup)
        assert report.final_congruent is True
        controller.table.verify_all()


class TestFanoutSpeedup:
    @pytest.mark.parametrize("model", MODELS)
    def test_parallel_cuts_plan_makespan(self, model):
        _sr, serial, _c1 = run_scenario(fanout_scenario, model, "serial",
                                        check_final=False)
        _pr, parallel, _c2 = run_scenario(fanout_scenario, model,
                                          "parallel", check_final=False)
        assert serial.committed == parallel.committed
        speedup = serial.plan_makespan["p50"] / \
            parallel.plan_makespan["p50"]
        assert speedup >= 1.5, f"{model}: only {speedup:.2f}x"


class TestDeterminism:
    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    @pytest.mark.parametrize("model", ["ev", "psv", "wv"])
    def test_same_seed_same_report(self, model, execution):
        rows = []
        for _ in range(2):
            _r, report, _c = run_scenario(morning_scenario, model,
                                          execution)
            rows.append((report.row(), report.serial_order,
                         report.lock_wait, report.plan_makespan))
        assert rows[0] == rows[1]


class TestParallelSemantics:
    def wide(self, name="wide", devices=(0, 1, 2, 3), duration=5.0):
        return routine(name, [(d, "ON", duration) for d in devices])

    def test_parallel_runs_disjoint_commands_concurrently(self):
        home = Home(model="ev",
                    config=ControllerConfig(execution="parallel"),
                    n_devices=4)
        run = home.submit(self.wide())
        home.run()
        assert run.status is RoutineStatus.COMMITTED
        # All four commands started within one network hop of each
        # other instead of back-to-back.
        starts = [e.started_at for e in run.executions]
        assert max(starts) - min(starts) < 1.0
        assert run.finish_time < 4 * 5.0

    def test_serial_config_keeps_chain(self):
        home = Home(model="ev", n_devices=4)
        run = home.submit(self.wide())
        home.run()
        starts = [e.started_at for e in run.executions]
        assert starts == sorted(starts)
        assert run.finish_time >= 4 * 5.0

    def test_cancel_mid_plan_rolls_back_all_devices(self):
        home = Home(model="ev",
                    config=ControllerConfig(execution="parallel"),
                    n_devices=4)
        run = home.submit(self.wide(duration=10.0))
        home.sim.call_at(3.0, home.controller.request_abort, run,
                         "cancelled by user")
        home.run()
        assert run.status is RoutineStatus.ABORTED
        assert not run.inflight
        for device_id in range(4):
            assert home.registry.get(device_id).state == \
                home.initial[device_id]

    def test_must_failure_aborts_whole_parallel_plan(self):
        home = Home(model="ev",
                    config=ControllerConfig(execution="parallel"),
                    n_devices=4)
        run = home.submit(self.wide(duration=10.0))
        home.detect_failure(2, at=0.5)
        home.run()
        assert run.status is RoutineStatus.ABORTED
        assert "device 2" in run.abort_reason or "unreachable" in \
            run.abort_reason

    def test_wv_parallel_serializes_same_device_through_fifo(self):
        home = Home(model="wv",
                    config=ControllerConfig(execution="parallel"),
                    n_devices=2)
        home.submit(routine("a", [(0, "A", 2.0), (1, "A1", 2.0)]))
        home.submit(routine("b", [(0, "B", 2.0), (1, "B1", 2.0)]))
        result = home.run()
        # One writer at a time per device: the write log never shows
        # overlapping in-flight executions on device 0.
        assert len(result.committed) == 2
        queues = home.controller.device_queues
        assert not queues.busy(0) and not queues.busy(1)

    def test_gsv_parallel_still_one_routine_at_a_time(self):
        home = Home(model="gsv",
                    config=ControllerConfig(execution="parallel"),
                    n_devices=4)
        first = home.submit(self.wide("first", devices=(0, 1)))
        second = home.submit(self.wide("second", devices=(2, 3)))
        home.run()
        assert first.status is RoutineStatus.COMMITTED
        assert second.status is RoutineStatus.COMMITTED
        # Disjoint devices, but GSV's global lock still serializes.
        assert second.start_time >= first.finish_time

    def test_psv_parallel_disjoint_routines_overlap(self):
        home = Home(model="psv",
                    config=ControllerConfig(execution="parallel"),
                    n_devices=4)
        first = home.submit(self.wide("first", devices=(0, 1)))
        second = home.submit(self.wide("second", devices=(2, 3)))
        home.run()
        assert second.start_time < first.finish_time

    def test_lock_wait_recorded_for_admission(self):
        home = Home(model="gsv", n_devices=2)
        home.submit(routine("a", [(0, "A", 5.0)]))
        blocked = home.submit(routine("b", [(1, "B", 1.0)]))
        home.run()
        assert blocked.lock_wait_s > 0.0


class TestConfigValidation:
    def test_unknown_execution_strategy_rejected(self):
        with pytest.raises(ValueError):
            Home(model="ev",
                 config=ControllerConfig(execution="quantum"))

    def test_last_index_map_precomputed(self):
        run_routine = Routine(name="r", commands=[
            Command(device_id=3, value="A", duration=1.0),
            Command(device_id=3, value="B", duration=1.0),
            Command(device_id=5, value="C", duration=1.0),
        ])
        home = Home(model="wv", n_devices=6)
        run = home.submit(run_routine)
        footprint = run.routine.footprint
        assert (footprint.last_index(3), footprint.last_index(5)) == (1, 2)
