"""Virtual clock for discrete-event simulation.

All SafeHome timing (command durations, detector ping periods, lease
timeouts) is expressed in virtual seconds.  The clock only moves when the
simulator processes events, which makes every experiment deterministic
and lets the benchmarks sweep hour-long scenarios in milliseconds.
"""

from repro.errors import SimulationError


class VirtualClock:
    """Monotonically advancing simulated time, in seconds.

    ``now`` is a plain attribute (read on every scheduling decision);
    advance through :meth:`advance_to` so time never runs backwards.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises:
            SimulationError: if ``when`` is in the past.  Equal times are
                allowed because many events can share a timestamp.
        """
        if when < self.now:
            raise SimulationError(
                f"clock cannot move backwards: {when} < {self.now}"
            )
        self.now = when

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:.6f})"
