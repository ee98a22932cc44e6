"""Behavioral tests for Partitioned Strict Visibility."""

from repro.core.controller import RoutineStatus
from tests.conftest import Home, routine


class TestPSVConcurrency:
    def test_disjoint_routines_run_concurrently(self):
        home = Home(model="psv", n_devices=2)
        a = home.submit(routine("a", [(0, "ON", 5.0)]), when=0.0)
        b = home.submit(routine("b", [(1, "ON", 5.0)]), when=0.0)
        home.run()
        assert b.start_time < a.finish_time  # overlapped

    def test_conflicting_routines_serialized(self):
        home = Home(model="psv", n_devices=2)
        a = home.submit(routine("a", [(0, "ON", 5.0), (1, "ON", 5.0)]),
                        when=0.0)
        b = home.submit(routine("b", [(1, "OFF", 5.0)]), when=0.1)
        home.run()
        assert b.start_time >= a.finish_time

    def test_no_overtaking_through_a_blocked_routine(self):
        # c conflicts with b (queued); it must not start before b even
        # though c itself does not conflict with the running a.
        home = Home(model="psv", n_devices=3)
        a = home.submit(routine("a", [(0, "ON", 10.0)]), when=0.0)
        b = home.submit(routine("b", [(0, "OFF", 1.0), (2, "ON", 1.0)]),
                        when=0.1)
        c = home.submit(routine("c", [(2, "OFF", 1.0)]), when=0.2)
        home.run()
        assert b.start_time >= a.finish_time
        assert c.start_time >= b.start_time

    def test_end_state_serial_equivalent(self):
        home = Home(model="psv", n_devices=3)
        home.submit(routine("on", [(0, "ON", 1.0), (1, "ON", 1.0),
                                   (2, "ON", 1.0)]), when=0.0)
        home.submit(routine("off", [(0, "OFF", 1.0), (1, "OFF", 1.0),
                                    (2, "OFF", 1.0)]), when=0.5)
        result = home.run()
        assert len(set(result.end_state.values())) == 1


class TestPSVFailures:
    def test_failure_mid_touch_aborts(self):
        home = Home(model="psv", n_devices=2)
        r = home.submit(routine("r", [(0, "ON", 10.0), (1, "ON", 1.0)]),
                        when=0.0)
        home.detect_failure(0, at=3.0)  # during device 0's command
        home.run()
        assert r.status is RoutineStatus.ABORTED

    def test_failure_after_last_touch_aborts_if_still_down_at_finish(self):
        home = Home(model="psv", n_devices=2)
        r = home.submit(routine("r", [(0, "ON", 1.0), (1, "ON", 10.0)]),
                        when=0.0)
        home.detect_failure(0, at=5.0)  # after device 0's last touch
        home.run()
        # Condition 3*: still failed at finish point -> abort.
        assert r.status is RoutineStatus.ABORTED
        assert "finish point" in r.abort_reason

    def test_failure_after_last_touch_ok_if_recovered(self):
        home = Home(model="psv", n_devices=2)
        r = home.submit(routine("r", [(0, "ON", 1.0), (1, "ON", 10.0)]),
                        when=0.0)
        home.detect_failure(0, at=5.0)
        home.detect_restart(0, at=8.0)  # recovered before finish
        home.run()
        assert r.status is RoutineStatus.COMMITTED

    def test_fail_and_restart_before_first_touch_ok(self):
        home = Home(model="psv", n_devices=2)
        r = home.submit(routine("r", [(0, "ON", 10.0), (1, "ON", 1.0)]),
                        when=0.0)
        home.detect_failure(1, at=2.0)
        home.detect_restart(1, at=5.0)  # back before r touches device 1
        home.run()
        assert r.status is RoutineStatus.COMMITTED

    def test_still_failed_at_first_touch_aborts(self):
        home = Home(model="psv", n_devices=2)
        r = home.submit(routine("r", [(0, "ON", 10.0), (1, "ON", 1.0)]),
                        when=0.0)
        home.detect_failure(1, at=2.0)  # never restarts
        home.run()
        assert r.status is RoutineStatus.ABORTED

    def test_two_running_routines_each_hold_a_failed_device(self):
        """Condition 3*'s per-run failures are PSV state: one snapshot
        row per running routine that holds one, in admission order,
        gone once the routine leaves the running set."""
        home = Home(model="psv", n_devices=4)
        a = home.submit(routine("a", [(0, "ON", 1.0), (1, "ON", 10.0)]),
                        when=0.0)
        b = home.submit(routine("b", [(2, "ON", 1.0), (3, "ON", 10.0)]),
                        when=0.0)
        home.detect_failure(2, at=4.0)
        home.detect_failure(0, at=5.0)
        home.run(until=6.0)
        state = home.controller.snapshot_state()
        assert state["running"] == (a.routine_id, b.routine_id)
        assert state["failed_after_last_touch"] == (
            (a.routine_id, (0,)), (b.routine_id, (2,)))
        home.run()
        assert a.status is b.status is RoutineStatus.ABORTED
        assert home.controller.snapshot_state()[
            "failed_after_last_touch"] == ()
