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
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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


_BYTE_BITS = [tuple(offset for offset in range(8) if value >> offset & 1)
              for value in range(256)]


class Closure:
    """The transitive closure of the serialization order, kept current
    edge by edge (Italiano, TCS 1986).  Every placed routine holds one
    bit (``bit``; slots are recycled) and two masks over those bits:
    ``pre``, the routines before it (the paper's preSet), and ``post``,
    those after it (its postSet).  Orders only grow until the retained
    order prunes a routine, always a source: only its successors lose
    its bit."""

    __slots__ = ("bit", "pre", "post", "_owners", "_free")

    def __init__(self) -> None:
        self.bit: Dict[int, int] = {}
        self.pre: Dict[int, int] = {}
        self.post: Dict[int, int] = {}
        self._owners: Dict[int, int] = {}      # slot -> latest routine id
        self._free: List[int] = []

    def add(self, routine_id: int) -> None:
        if routine_id not in self.bit:
            slot = self._free.pop() if self._free else len(self._owners)
            self._owners[slot] = routine_id
            self.bit[routine_id] = 1 << slot
            self.pre[routine_id] = self.post[routine_id] = 0

    def members(self, mask: int) -> List[int]:
        """The routines whose bits ``mask`` holds, a byte at a time."""
        owners = self._owners
        out: List[int] = []
        base = 0
        for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
            if byte:
                for offset in _BYTE_BITS[byte]:
                    out.append(owners[base + offset])
            base += 8
        return out

    def link(self, before: int, after: int) -> None:
        """``before`` precedes ``after``, so everything up to ``before``
        precedes everything from ``after`` on."""
        pre, post, bit = self.pre, self.post, self.bit
        if post[before] & bit[after]:
            return
        up = pre[before] | bit[before]
        down = post[after] | bit[after]
        for routine_id in self.members(up):
            post[routine_id] |= down
        for routine_id in self.members(down):
            pre[routine_id] |= up

    def drop(self, routine_id: int) -> None:
        """Forget a source: only its successors held its bit."""
        bit = self.bit.pop(routine_id, 0)
        if bit:
            del self.pre[routine_id]
            for other in self.members(self.post.pop(routine_id)):
                self.pre[other] &= ~bit
            self._free.append(bit.bit_length() - 1)

    def cyclic(self) -> List[int]:
        """Routines in their own postSet, sorted: a contradiction names
        the routines on a cycle, not everything downstream of one."""
        return sorted(routine_id for routine_id, bit in self.bit.items()
                      if self.post[routine_id] & bit)


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
               finished: Callable[[int], bool]) -> List[int]:
        """``routine_id`` has finished: prune it unless something precedes
        it, then each finished successor left without one, in order."""
        if routine_id in self.predecessors:
            return []
        pruned = []
        stack = [routine_id]
        while stack:
            node = stack.pop()
            pruned.append(node)
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
        return pruned

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
    order in ``order``; ``closure`` holds everything the lineages and
    ``order`` imply together."""

    def __init__(self, committed_lookup: Optional[
            Callable[[int], Any]] = None) -> None:
        self._lineages: Dict[int, Lineage] = {}
        self._committed_lookup = committed_lookup
        self.order = RetainedOrder()
        self.closure = Closure()

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

    def neighbours(self, lineage: Lineage, index: int
                   ) -> Tuple[Optional[int], Optional[int]]:
        """The routines right before and after position ``index``: on the
        left, the device's tail when ``index`` sits right behind it."""
        entries = lineage.entries
        tail = self.order.frontier.get(lineage.device_id)
        if tail is not None and index == tail[1]:
            left: Optional[int] = tail[0]
        else:
            left = entries[index - 1].routine_id if index else None
        right = entries[index].routine_id if index < len(entries) else None
        return left, right

    def insert(self, index: int, access: LockAccess) -> None:
        """Place ``access`` at ``index`` of its device's lineage and
        link it to its two neighbours in the closure."""
        lineage = self.lineage(access.device_id)
        left, right = self.neighbours(lineage, index)
        lineage.insert(index, access)
        self.closure.add(access.routine_id)
        if left is not None:
            self.closure.link(left, access.routine_id)
        if right is not None:
            self.closure.link(access.routine_id, right)

    def retire(self, routine_id: int,
               finished: Callable[[int], bool]) -> None:
        """What the retained order prunes leaves the closure too."""
        for pruned in self.order.retire(routine_id, finished):
            self.closure.drop(pruned)

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
        edge to the first live entry behind it is made explicit.  Each
        of these orders the closure already holds."""
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

    def verify_serialize_before(self) -> None:
        """Invariant 4: no routine is in its own postSet — through any
        number of devices, and through orders only the retained order
        still holds."""
        cyclic = self.closure.cyclic()
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
