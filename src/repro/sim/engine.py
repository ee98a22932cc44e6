"""The discrete-event simulator driving all SafeHome experiments."""

from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue

# Cumulative events fired by every Simulator in this process, batched in
# once per run()/step() call so the hot loop never touches a global.
# The perf ledger and the sweeps golden diff this around a call to count
# its events (process-pool children keep their own counters — count on
# the serial backend).
_TOTAL_EVENTS = 0


def total_events_processed() -> int:
    """Process-wide cumulative event count (see the note above)."""
    return _TOTAL_EVENTS


class Simulator:
    """Deterministic discrete-event executor.

    Typical use::

        sim = Simulator()
        sim.call_at(5.0, hub.tick)
        sim.call_after(0.1, device.apply, "ON")
        sim.run()

    Event order is total: time first, then scheduling order, so two runs
    with the same seeds produce identical traces.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = VirtualClock(start)
        self._queue = EventQueue()
        self._running = False
        self._processed = 0
        # Fired after each event completes (between events, never inside
        # a callback).  The durability layer checkpoints here so captured
        # state is always at an event boundary — which is also the only
        # granularity at which `stop_after_events` can stop, so replay
        # can reach the exact same boundary deterministically.
        self._post_event_hooks: List[Callable[[], None]] = []

    def reset(self, start: float = 0.0) -> None:
        """Return this simulator to its just-constructed state.

        Used by the fleet's :class:`~repro.fleet.worker.HomeFactory` to
        reuse one simulator across homes instead of allocating a fresh
        clock + queue per home.  Equivalent to ``Simulator(start)`` for
        all observable behavior (the reset-vs-fresh property test in
        ``tests/test_fleet.py`` pins this).
        """
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self.clock.now = float(start)
        self._queue = EventQueue()
        self._processed = 0
        self._post_event_hooks = []

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next pending event, ``None`` when idle.

        Skips cancelled entries; used by real-time pacing to sleep
        exactly until the next due event instead of busy-polling.
        """
        return self._queue.peek_time()

    def call_at(self, when: float, callback: Callable[..., Any],
                *args: Any, label: str = "") -> Event:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event in the past ({when} < {self.now})"
            )
        return self._queue.push(when, callback, args, label)

    def call_after(self, delay: float, callback: Callable[..., Any],
                   *args: Any, label: str = "") -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self.now + delay, callback, args, label)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (no-op on ``None``/fired)."""
        if event is None or not event.pending:
            return
        event.cancel()
        self._queue.notify_cancel()

    def add_post_event_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback fired after every processed event."""
        self._post_event_hooks.append(hook)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            stop_after_events: Optional[int] = None,
            advance_clock: bool = True) -> float:
        """Process events until the queue drains or a bound is hit.

        Args:
            until: stop once the next event is strictly later than this
                time (the clock is still advanced to ``until``).
            max_events: safety valve against runaway simulations.
            stop_after_events: stop cleanly once the *total* processed
                count (:attr:`events_processed`, cumulative across run
                calls) reaches this value — the hub-crash injection
                point, exactly replayable because the counter is part of
                the deterministic trace.
            advance_clock: when False, a run whose queue drains *before*
                ``until`` keeps the clock at the last event instead of
                advancing to ``until`` (used by crash bounds: a crash
                time past the natural end must not inflate makespan).
                Runs stopped mid-queue still advance to ``until``.

        Returns:
            The virtual time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if stop_after_events is not None and \
                self._processed >= stop_after_events:
            return self.now
        self._running = True
        started_processed = self._processed
        queue = self._queue
        dispatch = self._dispatch
        bounded = (stop_after_events is not None
                   or max_events is not None)
        fast = until is None and stop_after_events is None and \
            not self._post_event_hooks
        try:
            if fast:
                # The dominant fleet shape: run-to-drain with no hooks
                # and no event-index stop (``max_events`` stays honored
                # as the livelock valve).  The per-event sequence is
                # _dispatch minus the hook check, with the queue pop,
                # clock advance and event fire inlined (heap order
                # guarantees the forward-only time advance_to() checks).
                clock = self.clock
                pop = queue.pop
                while queue._live:
                    event = pop()
                    clock.now = event.time
                    callback, event.callback = event.callback, None
                    callback(*event.args)
                    self._processed += 1
                    if max_events is not None and \
                            self._processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            f"likely a livelock")
                    if self._post_event_hooks:
                        # A callback registered a hook mid-run: leave
                        # the fast path for the remaining events.
                        fast = False
                        break
                if fast:
                    return self.now
            while queue:
                if until is not None:
                    next_time = queue.peek_time()
                    if next_time is None:
                        break
                    if next_time > until:
                        self.clock.advance_to(until)
                        return self.now
                dispatch(queue.pop())
                if bounded:
                    if stop_after_events is not None and \
                            self._processed >= stop_after_events:
                        return self.now
                    if max_events is not None and \
                            self._processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            f"likely a livelock")
            if advance_clock and until is not None and until > self.now:
                self.clock.advance_to(until)
            return self.now
        finally:
            self._running = False
            global _TOTAL_EVENTS
            _TOTAL_EVENTS += self._processed - started_processed

    def _dispatch(self, event: Event) -> None:
        """Fire one event: advance the clock, run the callback, bump the
        processed count, dispatch post-event hooks.

        The per-event sequence for :meth:`run`'s bounded/hooked loop and
        :meth:`step`, so those two can never drift (the durability
        layer's crash-at-boundary semantics depend on them matching —
        and any run with post-event hooks, durability included, goes
        through here).  :meth:`run`'s no-hook fast loop inlines this
        exact sequence minus the hook dispatch; a change to the
        sequence must be mirrored there (the dispatch-unification test
        in ``tests/test_bench.py`` compares the traces).  The
        empty-hooks case is hoisted: no loop setup when nothing is
        registered.
        """
        self.clock.advance_to(event.time)
        event.fire()
        self._processed += 1
        hooks = self._post_event_hooks
        if hooks:
            for hook in hooks:
                hook()

    def step(self) -> bool:
        """Process exactly one event. Returns False when queue is empty."""
        if not self._queue:
            return False
        self._dispatch(self._queue.pop())
        global _TOTAL_EVENTS
        _TOTAL_EVENTS += 1
        return True
