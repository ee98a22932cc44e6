"""Centralized lock table: the classic lock-manager design.

One table per controller replaces the per-model lock bookkeeping that
used to live inside GSV (an implicit global mutex), PSV (a blocked-set
scan over waiting routines) and EV's lease plumbing.  The table speaks
the textbook vocabulary of transactional lock managers:

* **shared / exclusive** modes per resource (a resource is usually a
  device id; GSV locks the single :data:`GLOBAL` pseudo-resource);
* **FIFO wait queues** — a request that cannot be granted now waits in
  arrival order, so grants never overtake earlier waiters;
* a **wait-for graph** derived from holders and waiters, with cycle
  detection and *deterministic victim selection* (youngest routine in
  the cycle, i.e. highest routine id — deterministic across runs and
  backends, unlike timestamp- or random-victim schemes);
* **leniency-scaled lease expiry**: a grant may carry a deadline
  computed as ``duration × leniency + slack`` (§4.1's revocation rule);
  :meth:`LockTable.overdue` reports expired grants that have waiters
  queued behind them, which is exactly when revoking is worthwhile.

The table is pure bookkeeping: it never touches the simulator.  Policy
code decides when to request, release and revoke; the execution engine
wires grant callbacks back into routine admission.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Pseudo-resource representing "the whole home" (GSV's one-at-a-time
#: rule is an exclusive lock on this resource).
GLOBAL = -1


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


def lease_deadline(now: float, duration: float, leniency: float = 1.1,
                   slack: float = 0.0) -> float:
    """§4.1's revocation deadline: estimated hold time, leniency-scaled
    to absorb estimate error, plus fixed slack for network jitter."""
    return now + duration * leniency + slack


@dataclass
class LockGrant:
    """One owner's granted hold on one resource."""

    owner: int
    resource: int
    mode: LockMode
    granted_at: float = 0.0
    deadline: Optional[float] = None    # lease expiry; None = no lease

    def overdue(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class _Waiter:
    """A queued request (FIFO per resource)."""

    owner: int
    resource: int
    mode: LockMode
    enqueued_at: float = 0.0
    deadline: Optional[float] = None


@dataclass
class _Resource:
    """Grant set plus wait queue for one resource."""

    resource: int
    grants: List[LockGrant] = field(default_factory=list)
    waiters: List[_Waiter] = field(default_factory=list)

    def holder_ids(self) -> List[int]:
        return [grant.owner for grant in self.grants]

    def grantable(self, owner: int, mode: LockMode) -> bool:
        """Could ``owner`` be granted ``mode`` right now?

        Requires compatibility with every current grant *and* no
        earlier waiter (FIFO fairness: lock requests never overtake).
        """
        if any(not grant.mode.compatible(mode) for grant in self.grants
               if grant.owner != owner):
            return False
        return not any(waiter.owner != owner for waiter in self.waiters)


class LockTable:
    """Shared/exclusive resource locks with FIFO waiters and deadlock
    detection.  All operations are deterministic given call order."""

    def __init__(self) -> None:
        self._resources: Dict[int, _Resource] = {}
        # owner -> total seconds spent waiting for grants (lock-wait
        # breakdown for the metrics layer).
        self.wait_seconds: Dict[int, float] = {}
        self.stats: Dict[str, int] = {
            "acquired": 0, "waited": 0, "deadlocks": 0}

    def _resource(self, resource: int) -> _Resource:
        if resource not in self._resources:
            self._resources[resource] = _Resource(resource)
        return self._resources[resource]

    # -- queries --------------------------------------------------------------

    def holds(self, owner: int, resource: int) -> bool:
        table = self._resources.get(resource)
        return bool(table) and owner in table.holder_ids()

    def holdings(self, owner: int) -> List[int]:
        return [res.resource for res in self._resources.values()
                if owner in res.holder_ids()]

    def waiting_on(self, owner: int) -> List[int]:
        return [res.resource for res in self._resources.values()
                if any(w.owner == owner for w in res.waiters)]

    def waiter_count(self, resource: int) -> int:
        table = self._resources.get(resource)
        return len(table.waiters) if table else 0

    def overdue(self, now: float) -> List[LockGrant]:
        """Expired leases that have waiters queued behind them — the
        grants worth revoking (an uncontended overdue lease harms
        nobody, §4.1)."""
        out = []
        for res in self._resources.values():
            if not res.waiters:
                continue
            out.extend(g for g in res.grants if g.overdue(now))
        return out

    # -- acquire / release ----------------------------------------------------

    def acquire(self, owner: int, resource: int, *,
                mode: LockMode = LockMode.EXCLUSIVE, now: float = 0.0,
                deadline: Optional[float] = None) -> bool:
        """Grant now (True) or enqueue FIFO and return False."""
        res = self._resource(resource)
        if self.holds(owner, resource):
            return True
        if res.grantable(owner, mode):
            res.grants.append(LockGrant(owner, resource, mode,
                                        granted_at=now, deadline=deadline))
            self.stats["acquired"] += 1
            return True
        res.waiters.append(_Waiter(owner, resource, mode,
                                   enqueued_at=now, deadline=deadline))
        self.stats["waited"] += 1
        return False

    def release(self, owner: int, resource: int,
                now: float = 0.0) -> List[LockGrant]:
        """Release one hold; returns the waiters granted as a result."""
        res = self._resources.get(resource)
        if res is None:
            return []
        res.grants = [g for g in res.grants if g.owner != owner]
        return self._promote(res, now)

    def forget(self, owner: int, now: float = 0.0) -> List[LockGrant]:
        """Drop every hold *and* queued wait of ``owner`` (routine
        finished or was chosen as a deadlock victim); returns every
        newly granted waiter across all resources."""
        granted: List[LockGrant] = []
        for res in self._resources.values():
            before = len(res.grants) + len(res.waiters)
            res.grants = [g for g in res.grants if g.owner != owner]
            res.waiters = [w for w in res.waiters if w.owner != owner]
            if before != len(res.grants) + len(res.waiters):
                granted.extend(self._promote(res, now))
        return granted

    def _promote(self, res: _Resource, now: float) -> List[LockGrant]:
        """Grant the longest FIFO prefix of compatible waiters."""
        granted: List[LockGrant] = []
        while res.waiters:
            head = res.waiters[0]
            if any(not grant.mode.compatible(head.mode)
                   for grant in res.grants):
                break
            res.waiters.pop(0)
            grant = LockGrant(head.owner, head.resource, head.mode,
                              granted_at=now, deadline=head.deadline)
            res.grants.append(grant)
            self.wait_seconds[head.owner] = (
                self.wait_seconds.get(head.owner, 0.0)
                + max(0.0, now - head.enqueued_at))
            self.stats["acquired"] += 1
            granted.append(grant)
        return granted

    # -- snapshot (durability contract) ----------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable image of every grant and waiter.

        Deterministic: resources sorted by id, grants and waiters in
        their (semantically meaningful) list order.
        """
        return {
            "resources": [{
                "resource": res.resource,
                "grants": [{"owner": g.owner, "mode": g.mode.value,
                            "granted_at": g.granted_at,
                            "deadline": g.deadline}
                           for g in res.grants],
                "waiters": [{"owner": w.owner, "mode": w.mode.value,
                             "enqueued_at": w.enqueued_at,
                             "deadline": w.deadline}
                            for w in res.waiters],
            } for res in sorted(self._resources.values(),
                                key=lambda r: r.resource)],
            "wait_seconds": dict(self.wait_seconds),
            "stats": dict(self.stats),
        }

    # -- deadlock handling ----------------------------------------------------

    def wait_for_edges(self) -> List[Tuple[int, int]]:
        """(waiter, holder) edges: who is blocked on whom.

        A waiter waits on every incompatible current holder and on
        every earlier waiter in the same queue (FIFO ordering is part
        of the blocking relation)."""
        edges: Set[Tuple[int, int]] = set()
        for res in self._resources.values():
            for index, waiter in enumerate(res.waiters):
                for grant in res.grants:
                    if grant.owner != waiter.owner and \
                            not grant.mode.compatible(waiter.mode):
                        edges.add((waiter.owner, grant.owner))
                for earlier in res.waiters[:index]:
                    if earlier.owner != waiter.owner:
                        edges.add((waiter.owner, earlier.owner))
        return sorted(edges)

    def find_cycle(self) -> Optional[List[int]]:
        """One wait-for cycle (as an owner list), or None.

        Deterministic: nodes and successors are visited in sorted
        order, so the same table state always yields the same cycle."""
        successors: Dict[int, List[int]] = {}
        for waiter, holder in self.wait_for_edges():
            successors.setdefault(waiter, []).append(holder)
        for succ in successors.values():
            succ.sort()

        state: Dict[int, int] = {}      # 0 = visiting, 1 = done
        stack: List[int] = []

        def visit(node: int) -> Optional[List[int]]:
            if state.get(node) == 1:
                return None
            if state.get(node) == 0:
                return stack[stack.index(node):]
            state[node] = 0
            stack.append(node)
            for succ in successors.get(node, ()):
                cycle = visit(succ)
                if cycle is not None:
                    return cycle
            stack.pop()
            state[node] = 1
            return None

        for node in sorted(successors):
            cycle = visit(node)
            if cycle is not None:
                return cycle
        return None

    @staticmethod
    def choose_victim(cycle: List[int]) -> int:
        """Deterministic victim: the youngest routine (highest id) — it
        has done the least work and retrying it is cheapest."""
        return max(cycle)

    def detect_deadlock(self) -> Optional[int]:
        """Victim owner id if the wait-for graph has a cycle, else None."""
        cycle = self.find_cycle()
        if cycle is None:
            return None
        self.stats["deadlocks"] += 1
        return self.choose_victim(cycle)
