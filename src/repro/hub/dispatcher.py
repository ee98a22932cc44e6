"""Routine Dispatcher (Fig 11): trigger-driven routine invocation.

Routines "can be invoked either by the user or triggers" (§6).  The
dispatcher supports the trigger kinds mainstream hubs offer:

* **timed** triggers — "every Monday at 11pm" style schedules (the
  paper's Rtrash example); modelled as periodic virtual-time triggers;
* **state** triggers — invoke a routine when a device enters a given
  state (IFTTT-style "if the door unlocks, run welcome"); and
* **event** triggers — invoke on failure/restart detections (e.g. a
  caretaker notification routine).

Trigger-initiated routines flow through the same concurrency controller
as user-initiated ones, so every visibility/atomicity guarantee applies.
"""

from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional

from repro.core.controller import Controller, RoutineRun
from repro.devices.registry import DeviceRegistry
from repro.hub.routine_bank import RoutineBank
from repro.sim.engine import Simulator


@dataclass
class TriggerFiring:
    """Audit record of one trigger activation."""

    trigger_name: str
    time: float
    routine_name: str
    run: Optional[RoutineRun]
    kind: str = "user"      # user | timed | state | event


class Dispatcher:
    """Wires triggers to routine invocations through the controller."""

    def __init__(self, sim: Simulator, registry: DeviceRegistry,
                 bank: RoutineBank, controller: Controller) -> None:
        self.sim = sim
        self.registry = registry
        self.bank = bank
        self.controller = controller
        self.firings: List[TriggerFiring] = []
        self._armed = True

    # -- invocation -------------------------------------------------------------

    def invoke(self, routine_name: str,
               trigger_name: str = "user",
               kind: str = "user") -> RoutineRun:
        # A relabelled shallow copy: the bank entry stays untouched and
        # the command list is shared, as for any invocation.
        routine = replace(self.bank.get(routine_name), trigger=trigger_name)
        run = self.controller.submit(routine)
        self.firings.append(TriggerFiring(trigger_name, self.sim.now,
                                          routine_name, run, kind=kind))
        return run

    def firings_of_kind(self, kind: str) -> List[TriggerFiring]:
        """Audit helper: every firing of one trigger kind."""
        return [firing for firing in self.firings if firing.kind == kind]

    def disarm(self) -> None:
        """Stop all future trigger firings (end of simulation)."""
        self._armed = False

    # -- timed triggers -----------------------------------------------------------

    def every(self, routine_name: str, period: float,
              start_at: float = 0.0,
              count: Optional[int] = None,
              trigger_name: str = "") -> None:
        """Fire ``routine_name`` every ``period`` seconds.

        ``count`` bounds the firings (None = until disarmed); in a
        discrete-event world an unbounded timer would keep the
        simulation alive forever, so prefer a count.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        trigger_name = trigger_name or f"timer:{routine_name}"
        remaining = count if count is not None else -1

        def fire() -> None:
            nonlocal remaining
            if not self._armed or remaining == 0:
                return
            self.invoke(routine_name, trigger_name, kind="timed")
            if remaining > 0:
                remaining -= 1
            if remaining != 0:
                self.sim.call_after(period, fire, label=trigger_name)

        self.sim.call_at(start_at, fire, label=trigger_name)

    # -- device-state triggers -------------------------------------------------------

    def when_state(self, device_name: str, state: Any,
                   routine_name: str, once: bool = True,
                   trigger_name: str = "") -> None:
        """Invoke ``routine_name`` when the device reaches ``state``."""
        device = self.registry.by_name(device_name)
        trigger_name = trigger_name or \
            f"state:{device_name}={state}->{routine_name}"
        fired = False

        def watcher(dev, value) -> None:
            nonlocal fired
            if not self._armed or (once and fired):
                return
            if value == state:
                fired = True
                # Defer to an event so the invocation does not nest
                # inside the device write that triggered it.
                self.sim.call_after(0.0, self.invoke, routine_name,
                                    trigger_name, "state",
                                    label=trigger_name)

        device.watch(watcher)

    # -- failure/restart triggers -------------------------------------------------------

    def on_detection(self, kind: str, routine_name: str,
                     device_id: Optional[int] = None,
                     trigger_name: str = "") -> None:
        """Invoke a routine when the hub detects a failure or restart.

        ``kind`` is "failure" or "restart"; ``device_id`` narrows the
        trigger to one device (None = any device).
        """
        if kind not in ("failure", "restart"):
            raise ValueError("kind must be 'failure' or 'restart'")
        trigger_name = trigger_name or f"{kind}->{routine_name}"
        controller = self.controller
        original = (controller._policy_on_failure if kind == "failure"
                    else controller._policy_on_restart)

        def hook(detected_id: int) -> None:
            original(detected_id)
            if self._armed and (device_id is None
                                or detected_id == device_id):
                self.sim.call_after(0.0, self.invoke, routine_name,
                                    trigger_name, "event",
                                    label=trigger_name)

        if kind == "failure":
            controller._policy_on_failure = hook
        else:
            controller._policy_on_restart = hook
