"""EV's retained order against a shadow order that never forgets.

The shadow keeps, per device, every access ever placed in its
serialization order: an access that leaves the lineage stays where it
was (a later placement goes after it, as every exit from a lineage
does), unless its routine aborted, and the edge set between neighbours
only ever grows.  At every placement, commit and rollback of seeded
micro homes — Timeline and JiT, serial and parallel plans, 0 / 10 / 30 %
long routines, failed devices so that rollbacks run — every order the
shadow holds between two unfinished routines must be in the table's
maintained closure (``LineageTable.closure``) and in the closure rebuilt
from the lineages and the retained order alone, so an order the
retained order forgets shows even though the maintained closure never
forgets.  Once every routine has finished, the retained order and the
closure must be empty.  A random walk over the table API alone
(placements, releases, exits and commits on one lineage, nothing
retired) must imply every order the shadow ever held.
"""

import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.core.controller import RoutineStatus
from repro.core.lineage import LineageTable, LockAccess, LockStatus
from repro.hub.safehome import SafeHome
from repro.workloads.micro import MicroParams, generate_microbenchmark
from tests.test_closure_equivalence import ref_closure, watch


def postsets(table) -> Dict[str, Dict[int, Set[int]]]:
    """Every routine's postSet, maintained and rebuilt from scratch."""
    closure = table.closure
    return {"maintained": {rid: set(closure.members(post))
                           for rid, post in closure.post.items()},
            "rebuilt": {rid: sets[1]
                        for rid, sets in ref_closure(table).items()}}


class ShadowOrder:
    """Every order a lineage ever implied, checked against the table."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.history: Dict[int, List[int]] = {}    # device -> all accesses
        self.live: Dict[int, Set[int]] = {}        # device -> last seen
        self.edges: Set[Tuple[int, int]] = set()
        self.checks = 0

    def sync(self) -> None:
        controller = self.controller
        for lineage in controller.table.lineages():
            device_id = lineage.device_id
            owners = lineage.owners()
            history = self.history.setdefault(device_id, [])
            seen = self.live.get(device_id, set())
            for left in seen - set(owners):
                if controller.run_by_id(left).status is \
                        RoutineStatus.ABORTED:
                    history.remove(left)    # no longer in the serial order
            # A new access goes right before the next live entry the
            # shadow already holds, so after everything that left.
            for index, routine_id in enumerate(owners):
                if routine_id in seen:
                    continue
                later = [rid for rid in owners[index + 1:] if rid in seen]
                at = history.index(later[0]) if later else len(history)
                history.insert(at, routine_id)
                seen = seen | {routine_id}
            self.live[device_id] = set(owners)
            self.edges.update(zip(history, history[1:]))

    def check(self) -> None:
        self.sync()
        self.checks += 1
        successors: Dict[int, List[int]] = {}
        for before, after in self.edges:
            successors.setdefault(before, []).append(after)
        implied = postsets(self.controller.table)
        finished = self.controller.is_finished
        for start in successors:
            if finished(start):
                continue
            reached: Set[int] = set()
            frontier = list(successors[start])
            while frontier:
                node = frontier.pop()
                if node not in reached:
                    reached.add(node)
                    frontier.extend(successors.get(node, ()))
            for name, post in implied.items():
                missing = sorted(rid for rid in reached - post.get(start, ())
                                 if not finished(rid))
                assert not missing, (
                    f"R{start} precedes {missing} in the shadow order but "
                    f"not in the {name} closure "
                    f"(t={self.controller.sim.now:g})")


CELLS = [(scheduler, execution, long_pct)
         for scheduler in ("timeline", "jit")
         for execution in ("serial", "parallel")
         for long_pct in (0.0, 10.0, 30.0)]


@pytest.mark.parametrize("scheduler, execution, long_pct", CELLS)
def test_table_implies_every_order_the_shadow_holds(scheduler, execution,
                                                   long_pct):
    aborted = checks = 0
    for seed in (1, 2):
        home = SafeHome(visibility="ev", scheduler=scheduler,
                        execution=execution, seed=seed)
        home.load_workload(generate_microbenchmark(MicroParams(
            routines=30, concurrency=8, devices=6, zipf_alpha=0.8,
            long_routine_pct=long_pct, long_duration_s=120.0,
            failed_device_pct=20.0, must_pct=50.0), seed=seed))
        shadow = ShadowOrder(home.controller)
        watch(home.controller, shadow.check)
        result = home.run()
        order = home.controller.table.order
        assert not order.successors and not order.predecessors
        assert not order.frontier
        assert not home.controller.table.closure.bit
        aborted += len(result.aborted)
        checks += shadow.checks
    assert checks > 60
    assert aborted, "no rollback ran"


@pytest.mark.parametrize("seed", range(40))
def test_table_walk_implies_every_order_the_shadow_held(seed):
    rng = random.Random(seed)
    table = LineageTable()
    lineage = table.lineage(0)
    entries = lineage.entries
    history: List[int] = []
    edges: Set[Tuple[int, int]] = set()
    for routine_id in range(1, 80):
        released = sum(1 for e in entries
                       if e.status is LockStatus.RELEASED)
        move = rng.random()
        if move < 0.4 or not entries:
            # A placement lands in a gap, behind every released entry.
            index = rng.randint(released, len(entries))
            history.insert(history.index(entries[index].routine_id)
                           if index < len(entries) else len(history),
                           routine_id)
            table.insert(index, LockAccess(
                routine_id=routine_id, device_id=0, planned_start=0.0,
                duration=1.0))
        elif move < 0.6 and released < len(entries):
            lineage.acquire(entries[released].routine_id, 0.0)
            lineage.release(entries[released].routine_id, 0.0)
        elif move < 0.85 or not released:
            entry = rng.choice(entries)
            if entry.status is not LockStatus.RELEASED:
                history.remove(entry.routine_id)    # rolled back
            table.leave(entry.routine_id, 0)
        else:
            table.compact_commit(
                entries[rng.randrange(released)].routine_id, 0)
        edges.update(zip(history, history[1:]))
        for name, post in postsets(table).items():
            lost = sorted((before, after) for before, after in edges
                          if after not in post.get(before, ()))
            assert not lost, f"orders the {name} closure lost: {lost}"
