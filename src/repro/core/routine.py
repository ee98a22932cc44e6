"""Routines: sequences of commands, and their lock-request footprint.

A routine touches each of its devices through one *lock-access* spanning
its first to its last command on that device (§4.3's lock-accessD(Ri)).
A routine is compiled once, on first use, into a :class:`Footprint`:
those lock-accesses with the relative time offsets the Timeline
scheduler needs, and every other view the controllers derive from the
command list.
"""

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence

from repro.core.command import Command, SlotRecord
from repro.core.lineage import UNSET
from repro.errors import RoutineSpecError


class LockRequest(SlotRecord):
    """A routine's aggregate footprint on one device.

    A :class:`~repro.core.command.SlotRecord`, read-only by convention:
    one per device of every compiled routine, shared by all its runs.

    Attributes:
        device_id: the device.
        offset: seconds after routine start when the first command on
            this device begins (assuming no lock waits).
        duration: seconds from that first command's start to the last
            command's end on this device.
        first_index, last_index: the span's first and last indexes
            into ``routine.commands`` (per-device groups are contiguous).
        writes: True if any command in the span writes the device.
        reads: True if any command in the span reads the device.
        final_value: the span's last written value (``UNSET`` when it
            only reads) — the routine's end-state effect on the device.
    """

    __slots__ = ("device_id", "offset", "duration", "first_index",
                 "last_index", "writes", "reads", "final_value")

    def __init__(self, device_id: int, offset: float, duration: float,
                 first_index: int, last_index: int, writes: bool,
                 reads: bool, final_value: Any) -> None:
        self.device_id = device_id
        self.offset = offset
        self.duration = duration
        self.first_index = first_index
        self.last_index = last_index
        self.writes = writes
        self.reads = reads
        self.final_value = final_value

    @property
    def command_indexes(self) -> tuple:
        """Indexes into ``routine.commands`` of the span's commands."""
        return tuple(range(self.first_index, self.last_index + 1))


class Footprint:
    """Everything derived from a routine's command list, compiled once.

    Attributes:
        requests: one :class:`LockRequest` per device, in first-touch
            order.
        device_ids: the devices touched, in first-touch order.
        total_duration: ideal (lock-wait-free) execution time.
        plan_shapes: strategy -> compiled command DAG, filled on first
            use by :meth:`Routine.plan_shape` (None until then).

    Commands are fixed after construction and a bank routine is shared
    by every run that invokes it, so nothing may mutate a footprint or
    the containers it holds.
    """

    __slots__ = ("requests", "device_ids", "total_duration", "plan_shapes")

    def __init__(self, commands: Sequence[Command]) -> None:
        # One span per run of equal device ids: per-device groups are
        # contiguous (enforced at construction).  Offsets accumulate the
        # same left-to-right float additions
        # :meth:`Routine.command_offsets` performs.
        requests: List[LockRequest] = []
        elapsed = 0.0
        index = 0
        for device_id, group in groupby(commands, attrgetter("device_id")):
            start, first = elapsed, index
            writes = reads = False
            final: Any = UNSET
            for command in group:
                if command.is_read:
                    reads = True
                else:
                    writes, final = True, command.value
                elapsed += command.duration
                index += 1
            requests.append(LockRequest(device_id, start, elapsed - start,
                                        first, index - 1, writes, reads,
                                        final))
        self.requests = tuple(requests)
        self.device_ids = [request.device_id for request in requests]
        self.total_duration = sum(c.duration for c in commands)
        self.plan_shapes: Optional[Dict[str, tuple]] = None

    def last_index(self, device_id: int) -> int:
        """Index of the routine's last command on the device (-1 if it
        never touches it)."""
        for request in self.requests:
            if request.device_id == device_id:
                return request.last_index
        return -1


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
    # The compiled footprint (see :attr:`footprint`).
    _footprint: Optional[Footprint] = field(
        default=None, init=False, repr=False, compare=False)

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
    # Every view below reads the footprint compiled on first use:
    # commands are fixed after construction (the contiguity check would
    # be meaningless otherwise) and the controllers read these on every
    # placement, finish and rollback.  Callers must treat the returned
    # lists as read-only.

    @property
    def footprint(self) -> Footprint:
        """The routine's compiled :class:`Footprint`."""
        compiled = self._footprint
        if compiled is None:
            compiled = self._footprint = Footprint(self.commands)
        return compiled

    def plan_shape(self, strategy: str) -> tuple:
        """The command DAG under ``strategy`` as ``(dep_counts,
        dependents)`` (:func:`repro.core.execution.plan.compile_shape`)."""
        footprint = self.footprint
        shapes = footprint.plan_shapes
        if shapes is None:
            shapes = footprint.plan_shapes = {}
        shape = shapes.get(strategy)
        if shape is None:
            # Imported here: the execution package imports this module.
            from repro.core.execution.plan import compile_shape
            shape = shapes[strategy] = compile_shape(self.commands, strategy)
        return shape

    @property
    def device_ids(self) -> List[int]:
        """Devices touched, in first-touch order (no duplicates)."""
        return self.footprint.device_ids

    def conflicts_with(self, other: "Routine") -> bool:
        """True when the two routines touch at least one common device."""
        theirs = other.device_ids
        return any(device_id in theirs for device_id in self.device_ids)

    @property
    def total_duration(self) -> float:
        """Ideal (lock-wait-free) execution time of the routine."""
        return self.footprint.total_duration

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
        """Per-device lock-accesses in first-touch order."""
        return list(self.footprint.requests)

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
