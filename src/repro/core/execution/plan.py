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

The plan tracks per-node lifecycle (PENDING → READY → ISSUED → DONE)
and the virtual time at which each node became ready, which gives the
metrics layer its lock-wait breakdown (ready-but-blocked time).
"""

import enum
from typing import Dict, List, Optional, Sequence, Set

from repro.core.command import Command

STRATEGIES = ("serial", "parallel")


class NodeState(enum.Enum):
    PENDING = "pending"     # dependencies not yet satisfied
    READY = "ready"         # dependencies done; waiting for lock/queue
    ISSUED = "issued"       # handed to the device layer
    DONE = "done"           # resolved (applied, skipped or timed out)


class PlanNode:
    """One command plus its dependency edges.

    ``__slots__``: plans allocate one node per command per routine run,
    a measured per-command hot-path allocation.
    """

    __slots__ = ("index", "command", "deps", "dependents", "state",
                 "ready_at", "issued_at")

    def __init__(self, index: int, command: Command) -> None:
        self.index = index
        self.command = command
        self.deps: Set[int] = set()
        self.dependents: List[int] = []
        self.state = NodeState.PENDING
        self.ready_at = 0.0
        self.issued_at: Optional[float] = None

    def __repr__(self) -> str:
        return (f"PlanNode({self.index}, dev={self.command.device_id}, "
                f"{self.state.value}, deps={sorted(self.deps)})")


class CommandPlan:
    """The compiled DAG for one routine run."""

    def __init__(self, commands: Sequence[Command],
                 strategy: str = "serial", now: float = 0.0) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown execution strategy {strategy!r}; "
                             f"pick from {STRATEGIES}")
        self.strategy = strategy
        self.nodes: List[PlanNode] = [
            PlanNode(index=i, command=c) for i, c in enumerate(commands)]
        self._open: Set[int] = set(range(len(self.nodes)))
        self._build_edges()
        for node in self.nodes:
            if not node.deps:
                node.state = NodeState.READY
                node.ready_at = now

    def _build_edges(self) -> None:
        if self.strategy == "serial":
            for node in self.nodes[1:]:
                self._edge(node.index - 1, node.index)
            return
        last_on_device: Dict[int, int] = {}
        last_barrier: Optional[int] = None
        for node in self.nodes:
            command = node.command
            prev = last_on_device.get(command.device_id)
            if prev is not None:
                self._edge(prev, node.index)
            if command.is_read:
                # Barrier in: a condition observes the home *after*
                # everything already requested.
                for earlier in self.nodes[:node.index]:
                    self._edge(earlier.index, node.index)
                last_barrier = node.index
            elif last_barrier is not None:
                # Barrier out: commands after a condition are gated on it.
                self._edge(last_barrier, node.index)
            last_on_device[command.device_id] = node.index

    def _edge(self, before: int, after: int) -> None:
        if before != after and before not in self.nodes[after].deps:
            self.nodes[after].deps.add(before)
            self.nodes[before].dependents.append(after)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def ready_indexes(self) -> List[int]:
        """READY nodes in deterministic (program) order."""
        return [node.index for node in self.nodes
                if node.state is NodeState.READY]

    def all_done(self) -> bool:
        return not self._open

    def remaining(self) -> int:
        return len(self._open)

    def width(self) -> int:
        """Maximum theoretical concurrency: the largest level of the
        DAG under longest-path leveling."""
        level: Dict[int, int] = {}
        for node in self.nodes:     # indexes are topologically sorted
            level[node.index] = 1 + max(
                (level[d] for d in node.deps), default=-1)
        if not level:
            return 0
        counts: Dict[int, int] = {}
        for depth in level.values():
            counts[depth] = counts.get(depth, 0) + 1
        return max(counts.values())

    def critical_path_s(self) -> float:
        """Ideal makespan: the longest dependency chain by duration."""
        finish: Dict[int, float] = {}
        for node in self.nodes:
            start = max((finish[d] for d in node.deps), default=0.0)
            finish[node.index] = start + node.command.duration
        return max(finish.values(), default=0.0)

    # -- snapshot (durability contract) -----------------------------------------

    def snapshot(self) -> dict:
        """Per-node lifecycle image (edges are left out — they are a
        pure function of the command list and strategy)."""
        return {
            "strategy": self.strategy,
            "nodes": [{"index": node.index, "state": node.state.value,
                       "ready_at": node.ready_at,
                       "issued_at": node.issued_at}
                      for node in self.nodes],
        }

    # -- lifecycle ------------------------------------------------------------

    def mark_issued(self, index: int, now: float = 0.0) -> float:
        """READY → ISSUED; returns seconds spent ready-but-blocked."""
        node = self.nodes[index]
        if node.state is not NodeState.READY:
            raise ValueError(f"node {index} is {node.state.value}, "
                             "not ready")
        node.state = NodeState.ISSUED
        node.issued_at = now
        return max(0.0, now - node.ready_at)

    def mark_done(self, index: int, now: float = 0.0) -> List[int]:
        """ISSUED → DONE; promotes dependents, returns the newly READY."""
        node = self.nodes[index]
        node.state = NodeState.DONE
        self._open.discard(index)
        newly_ready: List[int] = []
        for dep_index in node.dependents:
            dependent = self.nodes[dep_index]
            if dependent.state is not NodeState.PENDING:
                continue
            if all(self.nodes[d].state is NodeState.DONE
                   for d in dependent.deps):
                dependent.state = NodeState.READY
                dependent.ready_at = now
                newly_ready.append(dep_index)
        return sorted(newly_ready)


def compile_plan(commands: Sequence[Command],
                 strategy: str = "serial") -> CommandPlan:
    """Convenience constructor (mirrors ``CommandPlan(...)``)."""
    return CommandPlan(commands, strategy=strategy)
