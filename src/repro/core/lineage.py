"""The locking data-structure: per-device lineages (§4.2–4.3).

A device's *lineage* is the planned transition order of its virtual
lock: the latest committed state followed by lock-access entries, left
to right.  The list order **is** the serialization order — a routine may
only execute on a device once every entry to the left of its own is
``RELEASED`` (or removed).  Planned times guide Timeline placement but
never override list order, so serializability holds even when duration
estimates are wrong.

Leases are placements: a *pre-lease* inserts a new access before an
existing ``SCHEDULED`` access; a *post-lease* is an acquisition that
follows a ``RELEASED`` access whose owner has not finished.
"""

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (Any, Callable, Collection, Dict, Iterable, List,
                    Mapping, Optional, Tuple)

from repro.errors import LineageInvariantError

# Sentinel distinguishing "no write applied yet" from "wrote None".
UNSET = object()


class LockStatus(enum.Enum):
    """Lifecycle of a lock-access entry (Invariant 3: R ← A ← S)."""

    SCHEDULED = "S"
    ACQUIRED = "A"
    RELEASED = "R"


_STATUS_RANK = {LockStatus.RELEASED: 0, LockStatus.ACQUIRED: 1,
                LockStatus.SCHEDULED: 2}


@dataclass
class LockAccess:
    """One routine's lock-access on one device (Fig 5 row entry)."""

    routine_id: int
    device_id: int
    status: LockStatus = LockStatus.SCHEDULED
    planned_start: float = 0.0
    duration: float = 0.0
    writes: bool = True
    reads: bool = False
    final_value: Any = UNSET       # intended last write on this device
    applied_value: Any = UNSET     # actual last applied write
    acquired_at: Optional[float] = None
    released_at: Optional[float] = None
    # True when this access was inserted before existing entries — i.e.
    # it borrows the lock via a pre-lease and is subject to revocation.
    pre_leased: bool = False

    @property
    def planned_end(self) -> float:
        return self.planned_start + self.duration

    def __repr__(self) -> str:
        return (f"[{self.status.value}:R{self.routine_id}"
                f"@{self.planned_start:g}+{self.duration:g}]")


@dataclass(frozen=True)
class Gap:
    """A free interval in a device's projected timeline.

    ``index`` is the position in the lineage's entry list where a new
    access placed in this gap would be inserted.
    """

    device_id: int
    index: int
    start: float
    end: float  # math.inf for the tail gap

    def fits(self, earliest: float, duration: float) -> bool:
        return max(self.start, earliest) + duration <= self.end

    def placement(self, earliest: float) -> float:
        return max(self.start, earliest)


class Lineage:
    """Lock-access list plus committed state for one device."""

    def __init__(self, device_id: int, committed_state: Any = UNSET) -> None:
        self.device_id = device_id
        self.entries: List[LockAccess] = []
        self.committed_state = committed_state
        self.committed_source: Optional[int] = None

    # -- lookup ---------------------------------------------------------------

    def index_of(self, routine_id: int) -> Optional[int]:
        for index, entry in enumerate(self.entries):
            if entry.routine_id == routine_id:
                return index
        return None

    def entry_for(self, routine_id: int) -> Optional[LockAccess]:
        # Direct scan (not via index_of): this is the hottest lineage
        # lookup — every pump asks it once per routine-device pair.
        for entry in self.entries:
            if entry.routine_id == routine_id:
                return entry
        return None

    def owners(self) -> List[int]:
        return [entry.routine_id for entry in self.entries]

    # -- mutation ---------------------------------------------------------------

    def insert(self, index: int, access: LockAccess) -> None:
        if access.device_id != self.device_id:
            raise LineageInvariantError("access belongs to another device")
        if self.index_of(access.routine_id) is not None:
            raise LineageInvariantError(
                f"routine {access.routine_id} already has an access on "
                f"device {self.device_id}")
        if not 0 <= index <= len(self.entries):
            raise LineageInvariantError(f"bad insert index {index}")
        # Invariant 3: never insert a SCHEDULED entry to the left of a
        # RELEASED or ACQUIRED one.
        for earlier in self.entries[index:]:
            if _STATUS_RANK[earlier.status] < _STATUS_RANK[access.status]:
                raise LineageInvariantError(
                    "insert would put a newer-status entry before an "
                    f"older one on device {self.device_id}")
        self.entries.insert(index, access)

    def append(self, access: LockAccess) -> None:
        self.insert(len(self.entries), access)

    # -- lock lifecycle ---------------------------------------------------------

    def can_acquire(self, routine_id: int, *,
                    finished: Callable[[int], bool],
                    wants_read: bool = False) -> bool:
        """True when ``routine_id``'s entry may become ACQUIRED now.

        Every entry to the left must be RELEASED; additionally the
        dirty-read guard (§4.1) blocks a reader behind a released access
        whose *unfinished* owner wrote the device.
        """
        released = LockStatus.RELEASED
        for earlier in self.entries:      # single pass, no index slice
            if earlier.routine_id == routine_id:
                return True
            if earlier.status is not released:
                return False
            dirty = (earlier.writes and wants_read
                     and not finished(earlier.routine_id))
            if dirty:
                return False
        return False                      # routine has no entry here

    def try_acquire(self, entry: LockAccess, now: float, *,
                    finished: Callable[[int], bool],
                    wants_read: bool = False) -> bool:
        """Fused :meth:`can_acquire` + :meth:`acquire` for the pump path.

        One pass over the entries decides acquirability (every earlier
        entry RELEASED, no dirty read) and, when granted, flips
        ``entry`` to ACQUIRED in place — the same outcome as the
        two-call sequence, without re-scanning the list three times.
        ``entry`` must be this lineage's SCHEDULED access for the
        routine (the caller just looked it up via :meth:`entry_for`).
        """
        released = LockStatus.RELEASED
        for earlier in self.entries:
            if earlier is entry:
                entry.status = LockStatus.ACQUIRED
                entry.acquired_at = now
                self.check_local_invariants()
                return True
            if earlier.status is not released:
                return False
            if earlier.writes and wants_read \
                    and not finished(earlier.routine_id):
                return False    # dirty read (§4.1)
        return False            # entry not in this lineage

    def acquire(self, routine_id: int, now: float) -> LockAccess:
        index = self.index_of(routine_id)
        if index is None:
            raise LineageInvariantError(
                f"routine {routine_id} has no access on device "
                f"{self.device_id}")
        entries = self.entries
        for i in range(index):       # no slice allocation: hot path
            earlier = entries[i]
            if earlier.status is not LockStatus.RELEASED:
                raise LineageInvariantError(
                    f"acquire out of order on device {self.device_id}: "
                    f"{earlier} precedes R{routine_id}")
        entry = entries[index]
        if entry.status is not LockStatus.SCHEDULED:
            raise LineageInvariantError(
                f"double acquire by R{routine_id} on device {self.device_id}")
        entry.status = LockStatus.ACQUIRED
        entry.acquired_at = now
        self.check_local_invariants()
        return entry

    def release(self, routine_id: int, now: float) -> LockAccess:
        entry = self.entry_for(routine_id)
        if entry is None or entry.status is not LockStatus.ACQUIRED:
            raise LineageInvariantError(
                f"release without acquire by R{routine_id} on device "
                f"{self.device_id}")
        entry.status = LockStatus.RELEASED
        entry.released_at = now
        return entry

    # -- invariants (§4.3) -------------------------------------------------------

    def check_local_invariants(self) -> None:
        """Invariants 2 and 3 for this lineage; raises on violation."""
        acquired = 0
        last_rank = 0
        for e in self.entries:      # single pass, no list builds
            rank = _STATUS_RANK[e.status]
            if rank == 1:
                acquired += 1
                if acquired > 1:
                    raise LineageInvariantError(
                        f"invariant 2 violated on device {self.device_id}"
                        f": {acquired} ACQUIRED entries")
            if rank < last_rank:
                raise LineageInvariantError(
                    f"invariant 3 violated on device {self.device_id}: "
                    f"{self.entries}")
            last_rank = rank

    def planned_overlaps(self) -> List[Tuple[LockAccess, LockAccess]]:
        """Invariant 1 check on *scheduled* planned times."""
        overlaps = []
        future = [e for e in self.entries if e.status is LockStatus.SCHEDULED]
        for first, second in zip(future, future[1:]):
            if second.planned_start < first.planned_end:
                overlaps.append((first, second))
        return overlaps

    # -- snapshot (durability contract) ------------------------------------------------

    def snapshot(self) -> dict:
        """In-memory image of the lineage (entries in serialization
        order plus the committed state).  Values are kept raw; the
        checkpoint layer jsonifies them for digests.  ``UNSET`` is
        encoded as absence."""
        entries = []
        for e in self.entries:
            entry = {"routine_id": e.routine_id, "status": e.status.value,
                     "planned_start": e.planned_start,
                     "duration": e.duration, "writes": e.writes,
                     "reads": e.reads, "acquired_at": e.acquired_at,
                     "released_at": e.released_at,
                     "pre_leased": e.pre_leased}
            if e.final_value is not UNSET:
                entry["final_value"] = e.final_value
            if e.applied_value is not UNSET:
                entry["applied_value"] = e.applied_value
            entries.append(entry)
        snap = {"device_id": self.device_id, "entries": entries,
                "committed_source": self.committed_source}
        if self.committed_state is not UNSET:
            snap["committed_state"] = self.committed_state
        return snap

    # -- status inference (Fig 8) --------------------------------------------------

    def inferred_state(self) -> Any:
        """Estimate the device's current state without querying it."""
        acquired = [e for e in self.entries
                    if e.status is LockStatus.ACQUIRED]
        if acquired:
            entry = acquired[-1]
            if entry.applied_value is not UNSET:
                return entry.applied_value
        released = [e for e in self.entries
                    if e.status is LockStatus.RELEASED
                    and e.applied_value is not UNSET]
        if released:
            return released[-1].applied_value
        return self.committed_state

    def rollback_target(self, routine_id: int) -> Any:
        """State to restore when aborting ``routine_id`` (§4.3).

        The immediately-left entry that actually applied a write wins;
        otherwise the committed state.
        """
        index = self.index_of(routine_id)
        if index is None:
            raise LineageInvariantError(
                f"routine {routine_id} not in lineage {self.device_id}")
        for earlier in reversed(self.entries[:index]):
            if earlier.applied_value is not UNSET:
                return earlier.applied_value
        return self.committed_state

    def is_last_writer(self, routine_id: int) -> bool:
        """True when no successor has applied a write after this routine."""
        index = self.index_of(routine_id)
        if index is None:
            return False
        entry = self.entries[index]
        if entry.applied_value is UNSET:
            return False
        for later in self.entries[index + 1:]:
            if later.applied_value is not UNSET:
                return False
        return True

    # -- projection / gaps (Timeline scheduling) ------------------------------------

    def projected_intervals(self, now: float,
                            end_estimator: Optional[
                                Callable[[LockAccess], float]] = None
                            ) -> List[Tuple[LockAccess, float, float]]:
        """(entry, start, end) projections for not-yet-released entries."""
        intervals: List[Tuple[LockAccess, float, float]] = []
        cursor = now
        for entry in self.entries:
            if entry.status is LockStatus.RELEASED:
                continue
            if entry.status is LockStatus.ACQUIRED:
                start = entry.acquired_at if entry.acquired_at is not None \
                    else now
                end = max(now, start + entry.duration)
                if end_estimator is not None:
                    end = max(end, end_estimator(entry))
            else:
                start = max(cursor, entry.planned_start)
                end = start + entry.duration
            intervals.append((entry, start, end))
            cursor = end
        return intervals

    def gaps(self, now: float,
             end_estimator: Optional[Callable[[LockAccess], float]] = None
             ) -> List[Gap]:
        """Free intervals from ``now`` on, each tagged with insert index."""
        intervals = self.projected_intervals(now, end_estimator)
        gaps: List[Gap] = []
        cursor = now
        released_count = sum(1 for e in self.entries
                             if e.status is LockStatus.RELEASED)
        position = released_count
        for entry, start, end in intervals:
            if start > cursor:
                gaps.append(Gap(self.device_id, position, cursor, start))
            cursor = max(cursor, end)
            position += 1
        gaps.append(Gap(self.device_id, position, cursor, math.inf))
        return gaps


class ClosureIndex:
    """Lazily memoized transitive preSet/postSet queries.

    Holds the precedence graph :meth:`LineageTable.closure_index` built
    from one table state; a reach set is computed on first request and
    cached, so the index is valid only until the table next changes
    (one placement, one commit).  Placement touches the neighbours of
    the gaps it examines, so most nodes' closures are never
    materialized.  ``pre``/``post`` return the memoized sets
    themselves: callers must not mutate them.
    """

    __slots__ = ("_successors", "_predecessors", "_pre", "_post")

    def __init__(self, successors: Mapping[int, Collection[int]],
                 predecessors: Mapping[int, Collection[int]]) -> None:
        self._successors = successors
        self._predecessors = predecessors
        self._pre: Dict[int, set] = {}
        self._post: Dict[int, set] = {}

    @staticmethod
    def _reach(start: int, graph: Mapping[int, Collection[int]],
               memo: Dict[int, set]) -> set:
        cached = memo.get(start)
        if cached is not None:
            return cached
        seen: set = set()
        frontier = list(graph.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            done = memo.get(node)
            if done is not None:
                seen.add(node)
                seen |= done
                continue
            seen.add(node)
            frontier.extend(graph.get(node, ()))
        memo[start] = seen
        return seen

    def pre(self, node: int) -> set:
        """Transitive predecessors (the paper's preSet)."""
        return self._reach(node, self._predecessors, self._pre)

    def post(self, node: int) -> set:
        """Transitive successors (the paper's postSet)."""
        return self._reach(node, self._successors, self._post)

    def cyclic(self) -> List[int]:
        """Routines that precede themselves, sorted (empty when the
        order is consistent).  Peels sources off the graph (Kahn), so
        the consistent case costs O(edges); only a contradiction pays
        for reach sets, to name the routines on a cycle rather than
        everything downstream of one."""
        indegree = {node: len(before)
                    for node, before in self._predecessors.items()}
        ready = [node for node in self._successors if node not in indegree]
        while ready:
            for after in self._successors.get(ready.pop(), ()):
                indegree[after] -= 1
                if not indegree[after]:
                    ready.append(after)
        return sorted(node for node, left in indegree.items()
                      if left and node in self.pre(node))


class RetainedOrder:
    """The orders the lineages no longer show: the edges departing
    accesses left (:meth:`LineageTable._depart`) and, per device, the
    ``(tail, ahead)`` frontier — the last access to leave it in its
    serialization order, which every later placement there follows, and
    how many live entries precede it.  Serialization-graph testing's
    node-deletion rule bounds it: a routine leaves once it has finished
    and nothing precedes it; its successors cascade."""

    __slots__ = ("successors", "predecessors", "frontier")

    def __init__(self) -> None:
        self.successors: Dict[int, set] = {}
        self.predecessors: Dict[int, set] = {}
        self.frontier: Dict[int, Tuple[int, int]] = {}

    def add(self, before: int, after: int) -> None:
        self.successors.setdefault(before, set()).add(after)
        self.predecessors.setdefault(after, set()).add(before)

    def retire(self, routine_id: int,
               finished: Callable[[int], bool]) -> None:
        """``routine_id`` has finished: prune it unless something still
        precedes it, then every finished successor left without one."""
        if routine_id in self.predecessors:
            return
        pruned = set()
        stack = [routine_id]
        while stack:
            node = stack.pop()
            pruned.add(node)
            for after in self.successors.pop(node, ()):
                before = self.predecessors[after]
                before.discard(node)
                if not before:
                    del self.predecessors[after]
                    if finished(after):
                        stack.append(after)
        for device_id, (tail, _) in list(self.frontier.items()):
            if tail in pruned:
                del self.frontier[device_id]

    def snapshot(self) -> dict:
        """Checkpoint image; ``{}`` when nothing is retained."""
        if not self.successors and not self.frontier:
            return {}
        return {"after": {node: sorted(after) for node, after
                          in self.successors.items()},
                "frontier": {device_id: list(tail) for device_id, tail
                             in self.frontier.items()}}


class LineageTable:
    """All device lineages plus the wait queue bookkeeping (Fig 4).

    ``committed_lookup`` (device_id → state) seeds a lineage's committed
    state lazily at first use, so devices may be registered after the
    controller is constructed.  Every exit from a lineage keeps its
    order in ``order``."""

    def __init__(self, committed_lookup: Optional[
            Callable[[int], Any]] = None) -> None:
        self._lineages: Dict[int, Lineage] = {}
        self._committed_lookup = committed_lookup
        self.order = RetainedOrder()

    def lineage(self, device_id: int) -> Lineage:
        lineage = self._lineages.get(device_id)
        if lineage is None:
            committed = UNSET
            if self._committed_lookup is not None:
                committed = self._committed_lookup(device_id)
            lineage = Lineage(device_id, committed)
            self._lineages[device_id] = lineage
        return lineage

    def lineages(self) -> Iterable[Lineage]:
        return self._lineages.values()

    def set_committed(self, device_id: int, value: Any,
                      source: Optional[int] = None) -> None:
        lineage = self.lineage(device_id)
        lineage.committed_state = value
        lineage.committed_source = source

    def leave(self, routine_id: int, device_id: int
              ) -> Optional[LockAccess]:
        """Remove one access (a finished non-writer's, or at rollback)."""
        lineage = self.lineage(device_id)
        index = lineage.index_of(routine_id)
        return None if index is None else self._depart(lineage, index)

    def compact_commit(self, routine_id: int, device_id: int) -> List[int]:
        """Commit compaction (Fig 7) for one device.

        Removes the committing routine's access *and every access to its
        left* — later routines in the serialization order overwrite the
        effects of earlier ones ("last writer wins").  Returns the
        routine ids whose accesses were compacted away.
        """
        lineage = self.lineage(device_id)
        index = lineage.index_of(routine_id)
        if index is None:
            return []
        removed = lineage.entries[:index + 1]
        for entry in removed:
            if entry.status is LockStatus.ACQUIRED:
                raise LineageInvariantError(
                    f"compaction would drop an ACQUIRED access: {entry}")
        for _ in removed:
            self._depart(lineage, 0)
        return [e.routine_id for e in removed if e.routine_id != routine_id]

    def _depart(self, lineage: Lineage, index: int) -> LockAccess:
        """The one way out: edges from the left neighbour (or the tail
        right before it) and to the right one; a RELEASED access leaving
        behind the tail becomes the device's tail, and the old tail's
        edge to the first live entry behind it is made explicit."""
        entries = lineage.entries
        entry = entries.pop(index)
        routine_id = entry.routine_id
        order = self.order
        device_id = lineage.device_id
        tail = order.frontier.get(device_id)
        if tail is not None and index == tail[1]:
            order.add(tail[0], routine_id)
        elif index:
            order.add(entries[index - 1].routine_id, routine_id)
        if index < len(entries):
            order.add(routine_id, entries[index].routine_id)
        if tail is not None and index < tail[1]:
            order.frontier[device_id] = (tail[0], tail[1] - 1)
        elif entry.status is LockStatus.RELEASED:
            if tail is not None and index > tail[1]:
                order.add(tail[0], entries[tail[1]].routine_id)
            order.frontier[device_id] = (routine_id, index)
        return entry

    # -- snapshot ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every device lineage, keyed (sorted) by device id."""
        return {"lineages": [self._lineages[device_id].snapshot()
                             for device_id in sorted(self._lineages)]}

    # -- invariant 4 ------------------------------------------------------------

    def closure_index(self) -> ClosureIndex:
        """The serialization order of this table state as a graph.

        A lineage is a total order, so its adjacent entries
        (``o_k -> o_{k+1}``) carry every pair it orders.  The retained
        order adds its edges, and one edge from each device's tail to
        the first live entry behind it.  One pass: O(live entries +
        retained edges).
        """
        successors: Dict[int, List[int]] = defaultdict(list)
        predecessors: Dict[int, List[int]] = defaultdict(list)
        frontier = self.order.frontier
        for lineage in self._lineages.values():
            entries = lineage.entries
            if not entries:
                continue
            tail = frontier.get(lineage.device_id)
            if tail is not None and tail[1] < len(entries):
                after = entries[tail[1]].routine_id
                successors[tail[0]].append(after)
                predecessors[after].append(tail[0])
            chain = iter(entries)
            before = next(chain).routine_id
            for entry in chain:
                after = entry.routine_id
                successors[before].append(after)
                predecessors[after].append(before)
                before = after
        for before, afters in self.order.successors.items():
            successors[before].extend(afters)
            for after in afters:
                predecessors[after].append(before)
        return ClosureIndex(successors, predecessors)

    def verify_serialize_before(self) -> None:
        """Invariant 4: no routine precedes itself — through any number
        of devices, and through orders only the retained order still
        holds."""
        cyclic = self.closure_index().cyclic()
        if cyclic:
            raise LineageInvariantError(
                "invariant 4 violated: the serialization order is cyclic "
                f"through routines {cyclic}")

    def verify_all(self) -> None:
        """Full invariant sweep (used by tests and paranoid mode)."""
        for lineage in self._lineages.values():
            lineage.check_local_invariants()
            overlaps = lineage.planned_overlaps()
            if overlaps:
                raise LineageInvariantError(
                    f"invariant 1 violated on device {lineage.device_id}: "
                    f"{overlaps}")
        self.verify_serialize_before()
