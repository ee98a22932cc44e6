"""Per-device FIFO of in-flight executions.

Parallel dispatch can make several routines want to actuate the same
device in the same virtual instant (WV and OCC have no locks at all).
Physical devices process one request at a time, and both the driver's
write log and the failure detector assume a single writer per device.
``DeviceQueues`` is that serialization point: a submitted execution
fires immediately when its device is idle, otherwise it queues FIFO and
fires when the device frees up.

A queued thunk returns True when it actually issued work and False when
it became moot (its routine finished while queued); moot thunks are
skipped so they never hold the device.
"""

from collections import deque
from typing import Callable, Deque, Dict

#: An execution attempt: returns True if it issued work on the device.
Thunk = Callable[[], bool]


class DeviceQueues:
    """One in-flight execution per device; FIFO overflow."""

    def __init__(self) -> None:
        self._busy: Dict[int, bool] = {}
        self._waiting: Dict[int, Deque[Thunk]] = {}

    def submit(self, device_id: int, thunk: Thunk) -> bool:
        """Fire now if the device is idle, else enqueue.

        Returns True when the thunk fired (and issued) immediately."""
        if self._busy.get(device_id):
            self._waiting.setdefault(device_id, deque()).append(thunk)
            return False
        return self._fire(device_id, thunk)

    def complete(self, device_id: int) -> None:
        """The in-flight execution resolved; fire the next waiter."""
        self._busy[device_id] = False
        waiting = self._waiting.get(device_id)
        while waiting:
            if self._fire(device_id, waiting.popleft()):
                return

    def _fire(self, device_id: int, thunk: Thunk) -> bool:
        self._busy[device_id] = True
        if thunk():
            return True
        self._busy[device_id] = False
        return False

    def busy(self, device_id: int) -> bool:
        return bool(self._busy.get(device_id))

    def depth(self, device_id: int) -> int:
        """Queued (not yet fired) executions behind the device."""
        return len(self._waiting.get(device_id, ()))

    def snapshot(self) -> tuple:
        """Structural rows for hub checkpoints: the busy devices, then
        ``(device, backlog depth)`` per non-empty backlog.  Queued
        thunks are closures and cannot be serialized — recovery
        reconstructs them by replay, so this snapshot is evidence
        (digested, compared), not a restore source."""
        return (
            tuple(sorted(d for d, flag in self._busy.items() if flag)),
            tuple((d, len(q)) for d, q in sorted(self._waiting.items())
                  if q),
        )
