"""Event objects and the cancellable priority queue behind the simulator.

Hot-path notes (measured by the perf ledger's ``sim.self_us_per_event``):
``Event`` is a ``__slots__`` class — the simulator allocates one per
scheduled callback, so a dict-less layout and a plain ``__init__``
matter.  The
heap stores ``(time, seq, event)`` triples so ordering is decided by
C-level tuple comparison instead of a Python ``__lt__`` per sift, and
the queue keeps a pending-cancellation count so the common case (no
cancelled event in the heap) pops without scanning.
"""

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Events order by ``(time, seq)`` so that events scheduled earlier at
    the same timestamp run first (FIFO tie-break), which keeps runs
    deterministic.
    """

    __slots__ = ("time", "seq", "callback", "args", "label", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Optional[Callable[..., Any]],
                 args: tuple = (), label: str = "",
                 cancelled: bool = False) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark this event so the simulator skips it."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        return not self.cancelled and self.callback is not None

    def fire(self) -> None:
        if self.callback is None:
            raise SimulationError("event has no callback")
        callback, self.callback = self.callback, None
        callback(*self.args)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else (
            "pending" if self.callback is not None else "fired")
        return (f"Event(t={self.time:g}, seq={self.seq}, {state}"
                + (f", {self.label!r}" if self.label else "") + ")")


class EventQueue:
    """Min-heap of :class:`Event` with lazy cancellation.

    ``_cancelled`` counts cancelled events still buried in the heap;
    while it is zero, :meth:`pop` and :meth:`peek_time` skip the
    lazy-cancellation scan entirely (the fast path for workloads that
    never cancel).
    """

    __slots__ = ("_heap", "_counter", "_live", "_cancelled")

    def __init__(self) -> None:
        self._heap: list = []        # (time, seq, Event) triples
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback: Callable[..., Any],
             args: tuple = (), label: str = "") -> Event:
        seq = next(self._counter)
        event = Event(time, seq, callback, args, label)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Pop the earliest non-cancelled event.

        Raises:
            SimulationError: when no live event remains.
        """
        heap = self._heap
        if not self._cancelled:
            if not heap:
                raise SimulationError("pop from empty event queue")
            self._live -= 1
            return heapq.heappop(heap)[2]
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._live -= 1
            return event
        raise SimulationError("pop from empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when empty."""
        heap = self._heap
        if self._cancelled:
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
        if not heap:
            return None
        return heap[0][0]

    def notify_cancel(self) -> None:
        """Account for one external :meth:`Event.cancel` call."""
        if self._live <= 0:
            raise SimulationError("cancel accounting underflow")
        self._live -= 1
        self._cancelled += 1
