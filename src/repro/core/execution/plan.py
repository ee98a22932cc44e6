"""Command-DAG planner: compile a routine into a dependency graph.

A routine's command list is a *program*; how much of it may run
concurrently is a *strategy*:

* ``serial`` — every command depends on its predecessor.  Kept for
  bit-compatibility: the paper's experiments execute routines strictly
  in order.
* ``parallel`` — commands on the *same* device keep program order
  (device state transitions must not reorder); commands on distinct
  devices with no read/write conflict run concurrently in virtual
  time.  Read commands are conditional clauses, so they act as
  barriers: a read waits for every earlier command, and every later
  command waits for the read — reordering around a condition would
  change what the condition observes and gates.

The DAG is a pure function of the command list and the strategy, so
:func:`compile_shape` builds it once per routine and strategy
(``Routine.plan_shape`` keeps it in the routine's compiled footprint)
as ``(dep_counts, dependents)``.  A :class:`CommandPlan` is one run's
progress through that shape: a remaining-dependency counter per node,
a program-ordered ready list, and per node its lifecycle (PENDING →
READY → ISSUED → DONE) and the virtual time at which it became ready,
which gives the metrics layer its lock-wait breakdown (ready-but-blocked
time).
"""

import enum
from bisect import insort
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.command import Command

STRATEGIES = ("serial", "parallel")

#: ``(dep_counts, dependents)``: per node the number of distinct
#: dependencies, and the nodes that depend on it.
PlanShape = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]


class NodeState(enum.Enum):
    PENDING = "pending"     # dependencies not yet satisfied
    READY = "ready"         # dependencies done; waiting for lock/queue
    ISSUED = "issued"       # handed to the device layer
    DONE = "done"           # resolved (applied, skipped or timed out)


PENDING, READY, ISSUED, DONE = NodeState


def compile_shape(commands: Sequence[Command], strategy: str) -> PlanShape:
    """The dependency DAG of ``commands`` under ``strategy``."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown execution strategy {strategy!r}; "
                         f"pick from {STRATEGIES}")
    deps: List[Set[int]] = [set() for _ in commands]
    if strategy == "serial":
        for index in range(1, len(commands)):
            deps[index].add(index - 1)
    else:
        last_on_device: Dict[int, int] = {}
        last_barrier: Optional[int] = None
        for index, command in enumerate(commands):
            prev = last_on_device.get(command.device_id)
            if prev is not None:
                deps[index].add(prev)
            if command.is_read:
                # Barrier in: a condition observes the home *after*
                # everything already requested.
                deps[index].update(range(index))
                last_barrier = index
            elif last_barrier is not None:
                # Barrier out: commands after a condition are gated on it.
                deps[index].add(last_barrier)
            last_on_device[command.device_id] = index
    dependents: List[List[int]] = [[] for _ in commands]
    for index, before in enumerate(deps):
        for earlier in before:
            dependents[earlier].append(index)
    return (tuple(len(before) for before in deps),
            tuple(tuple(later) for later in dependents))


class CommandPlan:
    """One run's progress through its routine's compiled DAG."""

    __slots__ = ("strategy", "_dependents", "_waiting", "ready", "state",
                 "ready_at", "issued_at", "remaining")

    def __init__(self, routine, strategy: str = "serial",
                 now: float = 0.0) -> None:
        dep_counts, self._dependents = routine.plan_shape(strategy)
        self.strategy = strategy
        self._waiting = list(dep_counts)
        #: READY node indexes in program order.
        self.ready = [i for i, count in enumerate(dep_counts) if not count]
        self.state = [PENDING] * len(dep_counts)
        self.ready_at = [0.0] * len(dep_counts)
        self.issued_at: List[Optional[float]] = [None] * len(dep_counts)
        for index in self.ready:
            self.state[index] = READY
            self.ready_at[index] = now
        #: Nodes not yet DONE.
        self.remaining = len(dep_counts)

    # -- snapshot (durability contract) -----------------------------------------

    def snapshot(self) -> tuple:
        """Per-node lifecycle rows ``(index, state, ready_at,
        issued_at)`` after the strategy (edges are left out — they are
        a pure function of the command list and strategy)."""
        return (self.strategy, tuple(
            (index, state.value, ready_at, issued_at)
            for index, (state, ready_at, issued_at) in enumerate(zip(
                self.state, self.ready_at, self.issued_at))))

    # -- lifecycle ------------------------------------------------------------

    def mark_issued(self, index: int, now: float = 0.0) -> float:
        """READY → ISSUED; returns seconds spent ready-but-blocked."""
        if self.state[index] is not READY:
            raise ValueError(f"node {index} is {self.state[index].value}, "
                             "not ready")
        self.state[index] = ISSUED
        self.issued_at[index] = now
        self.ready.remove(index)
        return max(0.0, now - self.ready_at[index])

    def mark_done(self, index: int, now: float = 0.0) -> None:
        """ISSUED → DONE; a dependent whose last dependency this was
        becomes READY at ``now``."""
        self.state[index] = DONE
        self.remaining -= 1
        waiting = self._waiting
        for later in self._dependents[index]:
            waiting[later] -= 1
            if not waiting[later]:
                self.state[later] = READY
                self.ready_at[later] = now
                insort(self.ready, later)
