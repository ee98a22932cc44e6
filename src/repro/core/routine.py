"""Routines: sequences of commands, and their lock-request footprint.

A routine touches each of its devices through one *lock-access* spanning
its first to its last command on that device (§4.3's lock-accessD(Ri)).
:func:`Routine.lock_requests` derives that footprint together with the
relative time offsets the Timeline scheduler needs.
"""

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.command import Command
from repro.errors import RoutineSpecError


@dataclass(frozen=True)
class LockRequest:
    """A routine's aggregate footprint on one device.

    Attributes:
        device_id: the device.
        offset: seconds after routine start when the first command on
            this device begins (assuming no lock waits).
        duration: seconds from that first command's start to the last
            command's end on this device.
        command_indexes: indexes into ``routine.commands``.
        writes: True if any command in the span writes the device.
        reads: True if any command in the span reads the device.
    """

    device_id: int
    offset: float
    duration: float
    command_indexes: tuple
    writes: bool
    reads: bool


@dataclass
class Routine:
    """A user- or trigger-initiated sequence of commands.

    Attributes:
        name: label ("goodnight", "R1", ...).
        commands: executed strictly in order.
        user: optional submitting user (scenarios).
        trigger: optional trigger description (dispatcher).
    """

    name: str
    commands: List[Command]
    user: str = ""
    trigger: str = ""

    def __post_init__(self) -> None:
        if not self.commands:
            raise RoutineSpecError(f"routine {self.name!r} has no commands")
        self._check_contiguous_devices()

    def _check_contiguous_devices(self) -> None:
        """Reject A,B,A device patterns.

        One lock-access per device must span first→last touch; a routine
        that touches A, then B, then A again would need its A lock-access
        to *contain* B's, which Algorithm 1's sequential gap chaining
        cannot place.  Workload generators always emit contiguous
        per-device groups, so we enforce it here.
        """
        seen: Dict[int, int] = {}
        previous: Optional[int] = None
        for index, command in enumerate(self.commands):
            dev = command.device_id
            if dev in seen and previous != dev:
                raise RoutineSpecError(
                    f"routine {self.name!r} touches device {dev} "
                    f"non-contiguously (commands {seen[dev]} and {index})"
                )
            if dev not in seen:
                seen[dev] = index
            previous = dev

    # -- derived footprint ---------------------------------------------------
    #
    # The footprint views below are cached on first use: commands are
    # fixed after construction (the contiguity check would be meaningless
    # otherwise) and the controllers re-derive these on every placement,
    # finish and rollback.  A bank routine is shared by every run that
    # invokes it, so nothing may mutate a routine, its commands or these
    # views after construction.  Callers must treat the returned lists
    # and dicts as read-only.

    @property
    def last_index_by_device(self) -> Dict[int, int]:
        """Device id -> index of the routine's last command on it."""
        cached = self.__dict__.get("_last_index")
        if cached is None:
            cached = self.__dict__["_last_index"] = {
                command.device_id: index
                for index, command in enumerate(self.commands)}
        return cached

    def plan_shape(self, strategy: str) -> tuple:
        """The command DAG under ``strategy`` as ``(dep_counts,
        dependents)`` (:func:`repro.core.execution.plan.compile_shape`)."""
        shapes = self.__dict__.setdefault("_plan_shapes", {})
        shape = shapes.get(strategy)
        if shape is None:
            # Imported here: the execution package imports this module.
            from repro.core.execution.plan import compile_shape
            shape = shapes[strategy] = compile_shape(self.commands, strategy)
        return shape

    def rerun(self, trigger: str) -> "Routine":
        """The same routine under another trigger, sharing the command
        list and every derived view computed so far."""
        twin = copy.copy(self)
        twin.trigger = trigger
        return twin

    @property
    def device_ids(self) -> List[int]:
        """Devices touched, in first-touch order (no duplicates)."""
        cached = self.__dict__.get("_device_ids")
        if cached is None:
            ordered: List[int] = []
            for command in self.commands:
                if command.device_id not in ordered:
                    ordered.append(command.device_id)
            cached = self.__dict__["_device_ids"] = ordered
        return cached

    @property
    def device_set(self) -> frozenset:
        return frozenset(c.device_id for c in self.commands)

    def conflicts_with(self, other: "Routine") -> bool:
        """True when the two routines touch at least one common device."""
        return bool(self.device_set & other.device_set)

    @property
    def total_duration(self) -> float:
        """Ideal (lock-wait-free) execution time of the routine."""
        cached = self.__dict__.get("_total_duration")
        if cached is None:
            cached = self.__dict__["_total_duration"] = \
                sum(c.duration for c in self.commands)
        return cached

    @property
    def is_long(self) -> bool:
        """A long routine contains at least one long command (§1)."""
        return any(c.is_long for c in self.commands)

    def command_offsets(self) -> List[float]:
        """Start offset of each command under back-to-back execution."""
        offsets, elapsed = [], 0.0
        for command in self.commands:
            offsets.append(elapsed)
            elapsed += command.duration
        return offsets

    def lock_requests(self) -> List[LockRequest]:
        """Per-device lock-accesses in first-touch order.

        Single pass over the commands: per-device groups are contiguous
        (enforced at construction), so a device's span closes when the
        next device begins.  Offsets accumulate the same left-to-right
        float additions :meth:`command_offsets` performs.
        """
        cached = self.__dict__.get("_lock_requests")
        if cached is not None:
            return cached
        requests: List[LockRequest] = []
        elapsed = 0.0
        device_id: Optional[int] = None
        start = 0.0
        indexes: List[int] = []
        writes = reads = False
        for index, command in enumerate(self.commands):
            if command.device_id != device_id:
                if device_id is not None:
                    requests.append(LockRequest(
                        device_id=device_id, offset=start,
                        duration=elapsed - start,
                        command_indexes=tuple(indexes),
                        writes=writes, reads=reads))
                device_id = command.device_id
                start = elapsed
                indexes = []
                writes = reads = False
            indexes.append(index)
            writes = writes or command.is_write
            reads = reads or command.is_read
            elapsed += command.duration
        if device_id is not None:
            requests.append(LockRequest(
                device_id=device_id, offset=start,
                duration=elapsed - start, command_indexes=tuple(indexes),
                writes=writes, reads=reads))
        self.__dict__["_lock_requests"] = requests
        return requests

    def final_write_values(self) -> Dict[int, Any]:
        """Last written value per device — the routine's end-state effect.

        Used by the serial-equivalence checkers: in a serial world, a
        routine's effect on each device is its last write.
        """
        cached = self.__dict__.get("_final_writes")
        if cached is None:
            values: Dict[int, Any] = {}
            for command in self.commands:
                if command.is_write:
                    values[command.device_id] = command.value
            cached = self.__dict__["_final_writes"] = values
        return cached

    def describe(self) -> str:
        steps = "; ".join(c.describe() for c in self.commands)
        return f"{self.name}: {steps}"


def sequential(name: str, steps: Sequence[tuple], **kwargs: Any) -> Routine:
    """Convenience constructor from ``(device_id, value, duration)`` tuples.

    >>> cooling = sequential("cooling", [(1, "CLOSED", 1.0), (2, "ON", 1.0)])
    """
    commands = []
    for step in steps:
        device_id, value, duration = step[0], step[1], step[2]
        must = step[3] if len(step) > 3 else True
        commands.append(Command(device_id=device_id, value=value,
                                duration=duration, must=must))
    return Routine(name=name, commands=commands, **kwargs)
