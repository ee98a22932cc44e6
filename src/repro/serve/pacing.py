"""Bridging the virtual clock to wall-clock: the ``RealTimeDriver``.

Everything below the hub is a discrete-event simulation whose clock
jumps from event to event.  A *served* home must instead advance in
real time — a routine that takes 4 virtual seconds should take 4 wall
seconds (or ``4 / speedup`` under test acceleration).  The driver sits
*next to* the home without forking it: it owns no events, it only
decides **when** the home may process the events that are already due,
and advances it only through :meth:`SafeHome.pump` — the journaled
slice a batch ``run()`` is made of.

Pacing contract
---------------

``speedup`` is virtual seconds per wall second:

* finite (``speedup=50``) — each :meth:`pump` processes every event
  whose virtual time the wall clock has "earned" since :meth:`start`,
  then sleeps briefly (never past the next due event).  Soak tests run
  at ``speedup >= 100`` so thousands of virtual seconds cost a few
  wall seconds.
* ``math.inf`` — *virtual-paced*: no wall coupling and no sleeping at
  all; :meth:`pump` simply drains every pending event.  This mode is
  byte-deterministic (the request layer runs inline, see
  docs/serving.md) and is what the determinism gate compares.

The wall clock and sleep function are injectable so pacing itself is
testable with a fake clock (no flaky real sleeps in the suite).
"""

import math
import time
from typing import Callable, Optional

from repro.errors import ServeError
from repro.hub.safehome import SafeHome


class RealTimeDriver:
    """Paces one :class:`~repro.hub.safehome.SafeHome` against wall time
    (its simulator is read on every call: recovery and migration rebuild
    it, and pacing goes on on the live one)."""

    def __init__(self, home: SafeHome, speedup: float = math.inf,
                 poll_s: float = 0.002,
                 monotonic: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if not speedup > 0:
            raise ServeError(f"speedup must be positive, got {speedup!r}")
        if poll_s <= 0:
            raise ServeError(f"poll_s must be positive, got {poll_s!r}")
        self.home = home
        self.speedup = float(speedup)
        self.poll_s = poll_s
        self._monotonic = monotonic
        self._sleep = sleep
        self._origin_wall: Optional[float] = None
        self._origin_virtual = 0.0
        # Monotonicity watermark: the virtual clock of a served home
        # must never run backwards (asserted on every pump; the soak
        # test reads `clock_regressions`).
        self._last_virtual = home.sim.now
        self.clock_regressions = 0

    @property
    def virtual_paced(self) -> bool:
        """True when ``speedup`` is infinite (no wall coupling)."""
        return math.isinf(self.speedup)

    @property
    def started(self) -> bool:
        return self.virtual_paced or self._origin_wall is not None

    def start(self) -> None:
        """Anchor the home's virtual now to the current wall instant."""
        self._origin_wall = self._monotonic()
        self._origin_virtual = self.home.sim.now

    def target(self) -> float:
        """Virtual time the wall clock has earned since :meth:`start`."""
        if self.virtual_paced:
            raise ServeError("a virtual-paced driver has no wall target")
        if self._origin_wall is None:
            raise ServeError("start() the driver before pacing")
        elapsed = self._monotonic() - self._origin_wall
        return self._origin_virtual + elapsed * self.speedup

    def behind_s(self) -> float:
        """Wall seconds the simulation lags its pacing schedule.

        Zero (or slightly negative) when keeping up; a growing value
        means the machine cannot process events as fast as the chosen
        ``speedup`` demands (a saturation signal surfaced in
        ``/status``).  Always zero when virtual-paced.
        """
        if self.virtual_paced or self._origin_wall is None:
            return 0.0
        return max(0.0, (self.target() - self.home.sim.now) / self.speedup)

    def wall_elapsed(self) -> float:
        if self._origin_wall is None:
            return 0.0
        return self._monotonic() - self._origin_wall

    def pump(self, max_events: Optional[int] = None) -> int:
        """Process due events; returns how many fired.

        Virtual-paced: drain the queue.  Real-time: run events up to
        :meth:`target` (advancing the clock to the target so virtual
        time tracks wall time even through idle gaps), then sleep —
        at most ``poll_s``, and never past the next event's due time —
        when there is nothing to do yet.
        """
        home = self.home
        pumped = 0
        if self.virtual_paced:
            pumped = home.pump(max_events=max_events)
        else:
            if self._origin_wall is None:
                self.start()
            target = self.target()
            if target > home.sim.now or home.sim.next_event_time() is not None:
                pumped = home.pump(until=target, max_events=max_events)
            if pumped == 0:
                next_due = home.sim.next_event_time()
                if next_due is None:
                    self._sleep(self.poll_s)
                else:
                    wait = (next_due - self.target()) / self.speedup
                    if wait > 0:
                        self._sleep(min(self.poll_s, wait))
        if home.sim.now < self._last_virtual:
            self.clock_regressions += 1
        self._last_virtual = home.sim.now
        return pumped


def parse_speedup(text: str) -> float:
    """CLI parser for ``--speedup``: a positive float or ``inf``."""
    raw = str(text).strip().lower()
    if raw in ("inf", "infinite", "virtual"):
        return math.inf
    try:
        value = float(raw)
    except ValueError:
        raise ServeError(
            f"--speedup must be a positive number or 'inf', got {text!r}")
    if not value > 0:
        raise ServeError(f"--speedup must be positive, got {text!r}")
    return value
