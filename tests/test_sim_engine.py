"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_advances(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_equal_time_allowed(self):
        clock = VirtualClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_rejects_backwards(self):
        clock = VirtualClock(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None)
        queue.push(1.0, lambda: None)
        assert queue.pop().time == 1.0
        assert queue.pop().time == 2.0

    def test_fifo_at_same_time(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None, label="first")
        second = queue.push(1.0, lambda: None, label="second")
        assert queue.pop() is first
        assert queue.pop() is second

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_len_counts_live_events(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(4.0, lambda: None)
        assert queue.peek_time() == 4.0


class TestSimulator:
    def test_runs_events_in_order(self):
        sim = Simulator()
        seen = []
        sim.call_at(2.0, seen.append, "b")
        sim.call_at(1.0, seen.append, "a")
        sim.call_after(3.0, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.call_at(1.5, lambda: times.append(sim.now))
        sim.call_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.0]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.call_after(1.0, lambda: seen.append("second"))

        sim.call_at(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_after(-1.0, lambda: None)

    def test_cancel_prevents_fire(self):
        sim = Simulator()
        seen = []
        event = sim.call_at(1.0, seen.append, "no")
        sim.call_at(2.0, seen.append, "yes")
        sim.cancel(event)
        sim.run()
        assert seen == ["yes"]

    def test_cancel_none_is_noop(self):
        Simulator().cancel(None)

    def test_double_cancel_is_noop(self):
        sim = Simulator()
        event = sim.call_at(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run()

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, seen.append, "early")
        sim.call_at(10.0, seen.append, "late")
        sim.run(until=5.0)
        assert seen == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert seen == ["early", "late"]

    def test_run_until_with_empty_queue_advances(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.call_after(0.1, forever)

        sim.call_at(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, seen.append, 1)
        sim.call_at(2.0, seen.append, 2)
        assert sim.step() is True
        assert seen == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.call_at(float(t), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_deterministic_tiebreak_across_runs(self):
        def trace():
            sim = Simulator()
            seen = []
            for index in range(10):
                sim.call_at(1.0, seen.append, index)
            sim.run()
            return seen

        assert trace() == trace()


class TestDispatchUnification:
    """run() and step() share _dispatch, so their traces cannot drift."""

    def build(self, n=20):
        sim = Simulator()
        trace = []
        for i in range(n):
            sim.call_after(i * 0.5, trace.append, (i, "t"))
        # One cancelled event exercises the lazy-cancellation path.
        doomed = sim.call_after(2.25, trace.append, ("doomed",))
        sim.cancel(doomed)
        return sim, trace

    def test_step_equals_run_trace(self):
        sim_run, trace_run = self.build()
        hooks_run = []
        sim_run.add_post_event_hook(lambda: hooks_run.append(
            sim_run.events_processed))
        sim_run.run()

        sim_step, trace_step = self.build()
        hooks_step = []
        sim_step.add_post_event_hook(lambda: hooks_step.append(
            sim_step.events_processed))
        while sim_step.step():
            pass

        assert trace_step == trace_run
        assert hooks_step == hooks_run
        assert sim_step.events_processed == sim_run.events_processed
        assert sim_step.now == sim_run.now
