"""Device state machines.

A device is the unit of locking in SafeHome.  Devices here are
deliberately simple — a named, typed state value plus an up/down flag —
because everything the paper evaluates (latency, congruence, aborts)
depends on *when* state changes and *whether the device is reachable*,
not on vendor-specific behaviour.
"""

import enum
from typing import Any, Callable, List, Tuple

from repro.errors import DeviceError, DeviceUnavailableError


class DeviceKind(enum.Enum):
    """Coarse device category; used by the catalog and scenarios."""

    SWITCH = "switch"          # ON/OFF plugs, lights
    LOCK = "lock"              # LOCKED/UNLOCKED
    SHADE = "shade"            # OPEN/CLOSED (windows, garage, shades)
    APPLIANCE = "appliance"    # coffee maker, dishwasher, oven...
    SENSOR = "sensor"          # read-mostly
    ACTUATOR = "actuator"      # robots: vacuum, mop, trash can


class Device:
    """A single smart device with fail-stop/fail-recovery semantics.

    Attributes:
        device_id: unique id within a registry.
        name: human-readable name ("kitchen-light").
        kind: a :class:`DeviceKind`.
        state: current physical state value (e.g. ``"ON"`` or ``25``).
        failed: True while the device is down (commands have no effect).
    """

    def __init__(self, device_id: int, name: str,
                 kind: DeviceKind = DeviceKind.SWITCH,
                 initial_state: Any = "OFF") -> None:
        self.device_id = device_id
        self.name = name
        self.kind = kind
        self.state = initial_state
        self.initial_state = initial_state
        self.failed = False
        # (time, value, source) tuples; source is a routine id or a tag
        # like "rollback"/"reconcile".  The congruence checkers replay it.
        self.write_log: List[Tuple[float, Any, Any]] = []
        self._watchers: List[Callable[["Device", Any], None]] = []

    # -- physical actions -------------------------------------------------

    def apply(self, value: Any, now: float, source: Any = None) -> None:
        """Set the physical state (the actuation a command performs).

        Raises:
            DeviceUnavailableError: if the device is currently failed.
        """
        if self.failed:
            raise DeviceUnavailableError(
                f"device {self.name} is failed; cannot apply {value!r}"
            )
        self.state = value
        self.write_log.append((now, value, source))
        for watcher in self._watchers:
            watcher(self, value)

    def read(self) -> Any:
        """Return the current state (a sensor read).

        Raises:
            DeviceUnavailableError: if the device is currently failed.
        """
        if self.failed:
            raise DeviceUnavailableError(f"device {self.name} is failed")
        return self.state

    # -- failure / recovery ----------------------------------------------

    def fail(self) -> None:
        """Fail-stop: the device stops responding, state is frozen."""
        self.failed = True

    def restart(self) -> None:
        """Recover: the device answers again, retaining its last state."""
        self.failed = False

    # -- observation -------------------------------------------------------

    def watch(self, callback: Callable[["Device", Any], None]) -> None:
        """Register a callback fired on every successful state change."""
        self._watchers.append(callback)

    def __repr__(self) -> str:
        status = "FAILED" if self.failed else "up"
        return (f"Device({self.device_id}, {self.name!r}, "
                f"state={self.state!r}, {status})")


def ensure_same_type(devices: List[Device]) -> None:
    """Validation helper used by group routines (e.g. 'all lights')."""
    if not devices:
        raise DeviceError("empty device group")
    kind = devices[0].kind
    for device in devices[1:]:
        if device.kind is not kind:
            raise DeviceError(
                f"mixed device kinds in group: {kind} vs {device.kind}"
            )
