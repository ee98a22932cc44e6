"""Commands: the unit of actuation inside a routine.

A command sets one device to one value and then holds the device for a
duration ("make coffee for 4 mins", "run sprinkler for 15 mins").  The
paper distinguishes:

* **must** vs **best-effort** commands (§2.2): a failed best-effort
  command is skipped; a failed must command aborts the routine.
* **long** commands (§1): exclusive control for an extended period —
  first-class, not two short commands.
* read commands (conditional clauses) matter for the dirty-read rule of
  post-leasing (§4.1).
"""

import math
import struct
from typing import Any, Iterator, Optional, Sequence, Tuple


# Commands at or above this duration are "long" (the paper's |L| averages
# 20 minutes; short commands average 10 s).  Used only for reporting.
LONG_COMMAND_THRESHOLD_S = 60.0


class SlotRecord:
    """Field-wise equality and ``repr``, as a dataclass has, for a
    hand-written ``__slots__`` class (``dataclass(slots=True)`` needs
    Python 3.10).  Defining ``__eq__`` leaves it unhashable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._fields())) + ")"


class Command(SlotRecord):
    """One device actuation within a routine.

    A :class:`SlotRecord`: every routine holds its commands for as long
    as the routine lives, so a command keeps no ``__dict__``.

    Attributes:
        device_id: target device.
        value: desired state (ignored for reads).
        duration: seconds of exclusive control after the state change.
        must: False marks the command best-effort (optional).
        is_read: True for a sensor read / conditional clause.
        undoable: False for physically irreversible actions (blare a test
            alarm); undo then restores the device's prior state instead,
            as §2.2 prescribes — which is exactly what our rollback does,
            so the flag is informational plus hook for custom handlers.
        undo_value: optional explicit value for a user-specified
            undo-handler.
    """

    __slots__ = ("device_id", "value", "duration", "must", "is_read",
                 "undoable", "undo_value", "name")

    def __init__(self, device_id: int, value: Any = None,
                 duration: float = 0.0, must: bool = True,
                 is_read: bool = False, undoable: bool = True,
                 undo_value: Optional[Any] = None, name: str = "") -> None:
        self.device_id = device_id
        self.value = value
        self.duration = duration
        self.must = must
        self.is_read = is_read
        self.undoable = undoable
        self.undo_value = undo_value
        self.name = name
        if duration < 0:
            raise ValueError("command duration cannot be negative")
        if is_read and value is not None:
            raise ValueError("read commands take no value")

    @property
    def is_long(self) -> bool:
        """Long commands need exclusive control for an extended period."""
        return self.duration >= LONG_COMMAND_THRESHOLD_S

    @property
    def is_write(self) -> bool:
        return not self.is_read

    def describe(self) -> str:
        tag = "must" if self.must else "best-effort"
        if self.is_read:
            return f"READ dev{self.device_id} [{tag}]"
        return (f"dev{self.device_id}:={self.value!r} "
                f"for {self.duration:g}s [{tag}]")


class CommandExecution:
    """Runtime record: what actually happened to one command.

    A ``__slots__`` class, not a dataclass: one is allocated per issued
    command, which makes it a measured hot-path allocation (see the
    perf ledger's ``fleet_mix`` workload).
    """

    __slots__ = ("command", "started_at", "finished_at", "applied",
                 "skipped", "rolled_back", "observed")

    def __init__(self, command: Command,
                 started_at: Optional[float] = None,
                 finished_at: Optional[float] = None,
                 applied: bool = False, skipped: bool = False,
                 rolled_back: bool = False, observed: Any = None) -> None:
        self.command = command
        self.started_at = started_at
        self.finished_at = finished_at
        self.applied = applied         # state change landed on the device
        self.skipped = skipped         # best-effort command skipped
        self.rolled_back = rolled_back
        self.observed = observed       # value seen, for reads

    def __repr__(self) -> str:
        return (f"CommandExecution({self.command.describe()}, "
                f"applied={self.applied}, skipped={self.skipped}, "
                f"rolled_back={self.rolled_back})")


#: A settled execution's row is 20 bytes: two doubles and a code.
_ROW_BYTES = 20
_APPLIED, _SKIPPED, _ROLLED_BACK = 1, 2, 4


def _unpack_time(value: float) -> Optional[float]:
    return None if value != value else value    # NaN packs None


class ExecutionHistory:
    """A settled run's executions, packed into three columns.

    A finished run is retained for as long as the report may read it,
    but nothing changes its executions any more, so at settle the
    controller swaps the run's list of :class:`CommandExecution` for
    this record.  :attr:`columns` is one ``bytes``: every
    ``started_at``, then every ``finished_at`` (raw doubles, NaN for
    None), then one unsigned code each: the command's index into
    :attr:`commands` (the routine's own list, or the executions'
    commands when one is foreign to it) shifted past the applied,
    skipped and rolled-back flag bits.  A read's observed value is kept
    by position in :attr:`observed`, only where there is one.

    ``len()``, indexing and iteration yield fresh
    :class:`CommandExecution` views; the record is read-only, and
    writing to a view changes nothing.  :meth:`applied_writes` reads the
    columns without building views.
    """

    __slots__ = ("commands", "columns", "observed")

    def __init__(self, commands: Sequence[Command],
                 executions: Sequence[CommandExecution]) -> None:
        count, nan = len(executions), math.nan
        in_order = count <= len(commands)
        starts, finishes, codes = [], [], []
        observed = None
        for position, execution in enumerate(executions):
            if in_order and execution.command is not commands[position]:
                in_order = False
            started, finished = execution.started_at, execution.finished_at
            starts.append(nan if started is None else started)
            finishes.append(nan if finished is None else finished)
            codes.append(position << 3 | execution.applied
                         | execution.skipped << 1
                         | execution.rolled_back << 2)
            if execution.observed is not None:
                if observed is None:
                    observed = {}
                observed[position] = execution.observed
        if not in_order:    # issued out of program order (parallel plans)
            where = {id(command): index
                     for index, command in enumerate(commands)}
            indexes = [where.get(id(e.command)) for e in executions]
            if None in indexes:     # a command from outside the routine
                commands = tuple(e.command for e in executions)
            else:
                codes = [index << 3 | code & 7
                         for index, code in zip(indexes, codes)]
        self.commands = commands
        self.columns = struct.pack(f"{2 * count}d{count}I",
                                   *starts, *finishes, *codes)
        self.observed = observed

    def __len__(self) -> int:
        return len(self.columns) // _ROW_BYTES

    def _unpack(self) -> tuple:
        """``(starts, finishes, codes)``."""
        count = len(self)
        values = struct.unpack(f"{2 * count}d{count}I", self.columns)
        return (values[:count], values[count:2 * count],
                values[2 * count:])

    def __iter__(self) -> Iterator[CommandExecution]:
        commands, observed = self.commands, self.observed
        starts, finishes, codes = self._unpack()
        for position, code in enumerate(codes):
            yield CommandExecution(
                commands[code >> 3], _unpack_time(starts[position]),
                _unpack_time(finishes[position]), bool(code & _APPLIED),
                bool(code & _SKIPPED), bool(code & _ROLLED_BACK),
                observed.get(position) if observed else None)

    def __getitem__(self, position: int) -> CommandExecution:
        return list(self)[position]

    def applied_writes(self) -> Iterator[Tuple[Command, Optional[float]]]:
        """``(command, started_at)`` per applied write, in issue order."""
        commands = self.commands
        starts, _finishes, codes = self._unpack()
        for start, code in zip(starts, codes):
            if code & _APPLIED:
                command = commands[code >> 3]
                if not command.is_read:
                    yield command, _unpack_time(start)

    def __repr__(self) -> str:
        return f"ExecutionHistory({len(self)} executions)"
