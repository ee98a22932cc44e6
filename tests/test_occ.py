"""Tests for the optimistic controller (paper future work, §4.1 fn 3)."""

import pytest

from repro.core.controller import ControllerConfig, RoutineStatus
from repro.metrics.congruence import final_state_serializable
from tests.conftest import Home, routine


class TestOCCHappyPath:
    def test_conflict_free_routines_all_commit_without_waiting(self):
        home = Home(model="occ", n_devices=4)
        runs = [home.submit(routine(f"r{i}", [(i, "ON", 5.0)]), when=0.0)
                for i in range(4)]
        home.run()
        assert all(r.status is RoutineStatus.COMMITTED for r in runs)
        assert all(r.wait_time == 0.0 for r in runs)
        assert home.controller.validation_aborts == 0

    def test_sequential_conflicting_routines_commit(self):
        home = Home(model="occ", n_devices=1)
        a = home.submit(routine("a", [(0, "A", 1.0)]), when=0.0)
        b = home.submit(routine("b", [(0, "B", 1.0)]), when=10.0)
        result = home.run()
        assert a.status is RoutineStatus.COMMITTED
        assert b.status is RoutineStatus.COMMITTED
        assert result.end_state[0] == "B"


class TestOCCValidation:
    def test_second_finisher_aborts_on_conflict(self):
        home = Home(model="occ", n_devices=2)
        # Disable retries to observe the raw validation outcome.
        home.controller.max_retries = 0
        slow = home.submit(routine("slow", [(0, "S", 1.0),
                                            (1, "S", 10.0)]), when=0.0)
        fast = home.submit(routine("fast", [(0, "F", 1.0)]), when=0.2)
        result = home.run()
        # fast commits first; slow's footprint overlaps -> slow aborts.
        assert fast.status is RoutineStatus.COMMITTED
        assert slow.status is RoutineStatus.ABORTED
        assert "validation conflict" in slow.abort_reason
        assert final_state_serializable(result, home.initial)

    def test_rollback_restores_committed_value_not_own_write(self):
        home = Home(model="occ", n_devices=2)
        home.controller.max_retries = 0
        slow = home.submit(routine("slow", [(0, "S", 1.0),
                                            (1, "S", 10.0)]), when=0.0)
        fast = home.submit(routine("fast", [(0, "F", 1.0)]), when=2.0)
        result = home.run()
        assert slow.status is RoutineStatus.ABORTED
        # fast's committed F is physically latest on device 0 and must
        # survive slow's rollback.
        assert result.end_state[0] == "F"

    def test_retry_eventually_commits(self):
        home = Home(model="occ", n_devices=2)
        slow = home.submit(routine("slow", [(0, "S", 1.0),
                                            (1, "S", 8.0)]), when=0.0)
        fast = home.submit(routine("fast", [(0, "F", 1.0)]), when=0.2)
        result = home.run()
        # The retried copy of slow runs alone and commits.
        retried = [r for r in result.runs
                   if r.name == "slow" and r is not slow]
        assert retried and retried[0].status is RoutineStatus.COMMITTED
        assert result.end_state[0] == "S"
        assert final_state_serializable(result, home.initial)

    def test_a_retry_shares_the_original_compiled_plan(self):
        home = Home(model="occ", n_devices=2,
                    config=ControllerConfig(execution="parallel"))
        slow = home.submit(routine("slow", [(0, "S", 1.0),
                                            (1, "S", 8.0)]), when=0.0)
        home.submit(routine("fast", [(0, "F", 1.0)]), when=0.2)
        result = home.run()
        [retry] = [r for r in result.runs
                   if r.name == "slow" and r is not slow]
        assert retry.routine.trigger == "occ-retry"
        assert retry.routine is not slow.routine
        assert retry.routine.commands is slow.routine.commands
        assert retry.routine.plan_shape("parallel") is \
            slow.routine.plan_shape("parallel")
        assert retry.status is RoutineStatus.COMMITTED

    def test_retry_budget_bounded(self):
        home = Home(model="occ", n_devices=1)
        home.controller.max_retries = 2
        # A stream of short conflicting routines keeps invalidating the
        # long one; it must stop retrying after the budget.
        long = home.submit(routine("long", [(0, "L", 30.0)]), when=0.0)
        for index in range(12):
            home.submit(routine(f"s{index}", [(0, f"V{index}", 1.0)]),
                        when=1.0 + index * 9.0)
        result = home.run()
        copies = [r for r in result.runs if r.name == "long"]
        assert len(copies) <= 1 + 2  # original + max_retries


class TestOCCVsEV:
    def test_occ_faster_when_conflict_free(self):
        def mean_latency(model):
            home = Home(model=model, n_devices=6)
            runs = [home.submit(routine(f"r{i}", [(i, "ON", 5.0)]),
                                when=0.0) for i in range(6)]
            home.run()
            return sum(r.latency for r in runs) / len(runs)

        # No conflicts: both are lock-free-fast; OCC must not be slower.
        assert mean_latency("occ") <= mean_latency("ev") * 1.05

    def test_occ_aborts_under_contention_ev_does_not(self):
        def run_contended(model):
            home = Home(model=model, n_devices=2)
            if model == "occ":
                home.controller.max_retries = 0
            for i in range(6):
                home.submit(routine(
                    f"r{i}", [(i % 2, f"V{i}", 4.0),
                              ((i + 1) % 2, f"W{i}", 4.0)]),
                    when=i * 0.5)
            return home.run()

        occ = run_contended("occ")
        ev = run_contended("ev")
        assert len(occ.aborted) > 0       # disruptive undo happened
        assert len(ev.aborted) == 0       # pessimistic locking avoided it
        # Both still end serially equivalent.
        assert final_state_serializable(
            occ, {0: "OFF", 1: "OFF"})
