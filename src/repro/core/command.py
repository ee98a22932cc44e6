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

from dataclasses import dataclass
from typing import Any, Optional


# Commands at or above this duration are "long" (the paper's |L| averages
# 20 minutes; short commands average 10 s).  Used only for reporting.
LONG_COMMAND_THRESHOLD_S = 60.0


@dataclass
class Command:
    """One device actuation within a routine.

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

    device_id: int
    value: Any = None
    duration: float = 0.0
    must: bool = True
    is_read: bool = False
    undoable: bool = True
    undo_value: Optional[Any] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("command duration cannot be negative")
        if self.is_read and self.value is not None:
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
