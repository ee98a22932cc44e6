"""Tests for the three EV scheduling policies (§5)."""

import pytest

from repro.core.controller import ControllerConfig, RoutineStatus
from repro.core.schedulers import make_scheduler
from tests.conftest import Home, routine


class TestFactory:
    def test_known_names(self):
        home = Home(model="ev")
        for name in ("fcfs", "jit", "timeline", "TL"):
            scheduler = make_scheduler(name, home.controller)
            assert scheduler is not None

    def test_unknown_name(self):
        home = Home(model="ev")
        with pytest.raises(ValueError):
            make_scheduler("priority", home.controller)


class TestFCFS:
    def test_serializes_in_arrival_order(self):
        home = Home(model="ev", scheduler="fcfs", n_devices=1)
        runs = [home.submit(routine(f"r{i}", [(0, f"V{i}", 1.0)]),
                            when=i * 0.01) for i in range(4)]
        result = home.run()
        assert result.end_state[0] == "V3"  # last arrival wins
        from repro.metrics.serialization import reconstruct_serial_order
        assert reconstruct_serial_order(result) == \
            [run.routine_id for run in runs]

    def test_never_pre_leases(self):
        home = Home(model="ev", scheduler="fcfs", n_devices=2)
        home.submit(routine("r1", [(0, "A", 30.0), (1, "B", 1.0)]),
                    when=0.0)
        home.submit(routine("r2", [(1, "C", 1.0)]), when=0.1)
        home.run()
        assert home.controller.scheduler_stats["pre_leases"] == 0

    def test_post_leases_still_pipeline(self):
        home = Home(model="ev", scheduler="fcfs", n_devices=2)
        r1 = home.submit(routine("r1", [(0, "A", 1.0), (1, "B", 30.0)]),
                         when=0.0)
        r2 = home.submit(routine("r2", [(0, "C", 1.0)]), when=0.1)
        home.run()
        assert r2.finish_time < r1.finish_time


class TestJiT:
    def test_starts_when_eligible(self):
        home = Home(model="ev", scheduler="jit", n_devices=2)
        r1 = home.submit(routine("r1", [(0, "A", 5.0)]), when=0.0)
        r2 = home.submit(routine("r2", [(0, "B", 1.0)]), when=0.1)
        home.run()
        # r2 waits for r1's release, then is scheduled by the
        # lock-release eligibility test.
        assert r2.start_time >= r1.finish_time - 1.0
        assert r2.status is RoutineStatus.COMMITTED

    def test_pre_lease_via_eligibility(self):
        home = Home(model="ev", scheduler="jit", n_devices=2)
        r1 = home.submit(routine("r1", [(0, "A", 30.0), (1, "B", 1.0)]),
                         when=0.0)
        r2 = home.submit(routine("r2", [(1, "C", 1.0)]), when=0.1)
        result = home.run()
        assert r2.finish_time < r1.finish_time
        # Serialized r2 before r1 on device 1: r1's write is final.
        assert result.end_state[1] == "B"

    def test_ineligible_when_device_acquired(self):
        home = Home(model="ev", scheduler="jit", n_devices=1)
        r1 = home.submit(routine("r1", [(0, "A", 10.0)]), when=0.0)
        r2 = home.submit(routine("r2", [(0, "B", 1.0)]), when=1.0)
        home.run()
        assert r2.start_time >= r1.finish_time - 1.0

    def test_ttl_prevents_starvation(self):
        config = ControllerConfig(jit_ttl_s=5.0)
        home = Home(model="ev", scheduler="jit", n_devices=2,
                    config=config)
        # A stream of short routines on device 1 could starve big,
        # which needs both devices; after its TTL expires nothing may
        # jump ahead of it.
        big = home.submit(routine("big", [(0, "A", 2.0), (1, "B", 2.0)]),
                          when=0.0)
        shorts = [home.submit(routine(f"s{i}", [(1, f"V{i}", 3.0)]),
                              when=0.1 + 0.05 * i) for i in range(6)]
        home.run()
        assert big.status is RoutineStatus.COMMITTED
        finished_before_big = [s for s in shorts
                               if s.finish_time < big.start_time]
        # TTL cap: at most the ones that started within the TTL window.
        assert len(finished_before_big) <= 3


class TestTimeline:
    def test_places_into_gap(self):
        home = Home(model="ev", scheduler="timeline", n_devices=2)
        r1 = home.submit(routine("r1", [(0, "A", 30.0), (1, "B", 2.0)]),
                         when=0.0)
        r2 = home.submit(routine("r2", [(1, "C", 1.0)]), when=0.1)
        home.run()
        assert r2.finish_time < 10.0  # ran in the gap, not after r1

    def test_backtracking_respects_serialization(self):
        """The Fig 9b situation: the first gap for R3's second access
        would contradict the order chosen for its first access."""
        home = Home(model="ev", scheduler="timeline", n_devices=3,
                    config=ControllerConfig(paranoid=True))
        r1 = home.submit(routine("r1", [(0, "A", 10.0), (1, "B", 10.0)]),
                         when=0.0)
        r2 = home.submit(routine("r2", [(2, "C", 5.0), (1, "D", 25.0)]),
                         when=0.0)
        r3 = home.submit(routine("r3", [(2, "E", 8.0), (1, "F", 8.0)]),
                         when=0.5)
        result = home.run()
        for run in (r1, r2, r3):
            assert run.status is RoutineStatus.COMMITTED
        home.controller.table.verify_serialize_before()
        from repro.metrics.congruence import final_state_serializable
        assert final_state_serializable(result, home.initial)

    def test_estimates_scale_with_estimate_error(self):
        config = ControllerConfig(estimate_error=0.5)
        home = Home(model="ev", scheduler="timeline", n_devices=2,
                    config=config)
        run = home.submit(routine("r", [(0, "A", 10.0)]))
        estimates = {home.controller.estimate_duration(
            run, run.routine.lock_requests()[0]) for _ in range(20)}
        assert len(estimates) > 1  # error injection randomizes

    def test_many_contending_routines_all_commit(self):
        home = Home(model="ev", scheduler="timeline", n_devices=4,
                    config=ControllerConfig(paranoid=True))
        for i in range(12):
            steps = [((i + j) % 4, f"V{i}", 1.0 + (i % 3))
                     for j in range(2)]
            home.submit(routine(f"r{i}", steps), when=i * 0.25)
        result = home.run()
        assert all(r.status is RoutineStatus.COMMITTED
                   for r in result.runs)
        from repro.metrics.congruence import final_state_serializable
        assert final_state_serializable(result, home.initial,
                                        exhaustive_limit=6)
