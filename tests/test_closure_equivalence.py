"""Differential tests for EV's precedence queries.

EV builds its preSet/postSet graph from *adjacent* lineage entries, the
edges of the table's retained order and one edge from each device's
tail to the first live entry behind it, and answers a gap from its two
neighbours.  The all-pairs definitions those replaced live on here, and
only here, as reference functions; the chain forms must agree with them
*exactly*:

* on every synthetic table hypothesis draws — random per-device orders
  (so cross-device contradictions and cycles occur), retained edges
  between live and departed routines, tails on empty and non-empty
  lineages with live entries still ahead of them;
* end to end, on seeded micro homes run once as shipped and once with
  the references monkeypatched onto the table and the controller:
  report row, device access orders, scheduler stats, the journaled
  record stream (every checkpoint's state digest and observation seal)
  and the closing seal over every ``lineage-placed`` /
  ``lineage-compacted`` observation;
* structurally: the adjacency of an n-entry lineage holds n − 1 edges,
  a retained edge or a tail costs one, and a gap costs at most two
  closure queries, so the quadratic form cannot come back unnoticed.
"""

import hashlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core.controller import ControllerConfig
from repro.core.ev import EventualVisibilityController
from repro.core.lineage import ClosureIndex, LineageTable, LockAccess
from repro.errors import LineageInvariantError
from repro.hub.safehome import SafeHome
from repro.workloads.micro import MicroParams, generate_microbenchmark
from tests.conftest import Home, routine


# -- the all-pairs definitions (reference only) --------------------------------

def ref_closure_index(table) -> ClosureIndex:
    successors: Dict[int, set] = {}
    predecessors: Dict[int, set] = {}

    def edge(before, after):
        successors.setdefault(before, set()).add(after)
        predecessors.setdefault(after, set()).add(before)

    for lineage in table.lineages():
        owners = lineage.owners()
        n = len(owners)
        for i in range(n - 1):
            for j in range(i + 1, n):
                edge(owners[i], owners[j])
        tail = table.order.frontier.get(lineage.device_id)
        if tail is not None:
            for after in owners[tail[1]:]:
                edge(tail[0], after)
    for before, afters in table.order.successors.items():
        for after in afters:
            edge(before, after)
    return ClosureIndex(successors, predecessors)


def ref_before_after_for_gap(controller, device_id: int, index: int,
                             closures: ClosureIndex,
                             owners: Optional[List[int]] = None
                             ) -> Tuple[set, set]:
    if owners is None:
        owners = controller.table.lineage(device_id).owners()
    pre: set = set()
    post: set = set()
    tail = controller.table.order.frontier.get(device_id)
    earlier = list(owners[:index])
    if tail is not None and index >= tail[1]:
        earlier.append(tail[0])
    for owner in earlier:
        pre.add(owner)
        pre |= closures.pre(owner)
    for owner in owners[index:]:
        post.add(owner)
        post |= closures.post(owner)
    return pre, post


def ref_reach(start: int, graph: Dict[int, set]) -> set:
    """Plain reachability, no memo: independent of ``_reach``."""
    seen: set = set()
    frontier = list(graph.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(graph.get(node, ()))
    return seen


# -- (a) synthetic tables ----------------------------------------------------------

@st.composite
def tables(draw):
    """``(orders, edges, tails)``: a per-device owner order, retained
    edges and per-device ``(tail, ahead)`` over a small population."""
    n_devices = draw(st.integers(1, 8))
    n_routines = draw(st.integers(0, 12))
    population = list(range(n_routines))
    orders = [draw(st.lists(st.sampled_from(population), unique=True))
              if population else [] for _ in range(n_devices)]
    # Retained routines reach past the live population: routines that
    # left every lineage.
    ids = st.integers(0, n_routines + 2)
    edges = draw(st.lists(st.tuples(ids, ids).filter(
        lambda pair: pair[0] != pair[1]), max_size=8))
    tails = {}
    for device_id, owners in enumerate(orders):
        tail = draw(st.none() | ids.filter(lambda rid: rid not in owners))
        if tail is not None:
            tails[device_id] = (tail, draw(st.integers(0, len(owners))))
    return orders, edges, tails


def build_controller(orders, edges=(), tails=None, paranoid=False):
    home = Home(model="ev", n_devices=len(orders),
                config=ControllerConfig(paranoid=paranoid))
    table = home.controller.table
    for device_id, owners in enumerate(orders):
        lineage = table.lineage(device_id)
        for position, routine_id in enumerate(owners):
            lineage.append(LockAccess(routine_id=routine_id,
                                      device_id=device_id,
                                      planned_start=10.0 * position,
                                      duration=1.0))
    for before, after in edges:
        table.order.add(before, after)
    for device_id, (tail, ahead) in (tails or {}).items():
        table.order.frontier[device_id] = (tail, ahead)
        if ahead:
            # What a departure records: the live entry before the tail
            # precedes it.
            table.order.add(orders[device_id][ahead - 1], tail)
    return home


class TestSyntheticTables:
    @given(tables())
    def test_pre_and_post_equal_for_every_node(self, table):
        controller = build_controller(*table).controller
        fast = controller.table.closure_index()
        reference = ref_closure_index(controller.table)
        nodes = set(reference._successors) | set(reference._predecessors)
        nodes.add(99)       # a routine the table has never seen
        for node in sorted(nodes):
            assert fast.pre(node) == reference.pre(node) == \
                ref_reach(node, reference._predecessors)
            assert fast.post(node) == reference.post(node) == \
                ref_reach(node, reference._successors)

    @given(tables())
    def test_every_gap_of_every_device_equal(self, table):
        orders = table[0]
        controller = build_controller(*table).controller
        fast = controller.table.closure_index()
        reference = ref_closure_index(controller.table)
        for device_id, owners in enumerate(orders):
            for index in range(len(owners) + 1):
                expected = ref_before_after_for_gap(
                    controller, device_id, index, reference)
                assert controller.before_after_for_gap(
                    device_id, index, fast) == expected
                assert controller.before_after_for_gap(
                    device_id, index, fast, owners=list(owners)) == expected

    @given(tables())
    def test_returned_sets_are_the_callers_to_mutate(self, table):
        orders = table[0]
        controller = build_controller(*table).controller
        fast = controller.table.closure_index()
        for device_id, owners in enumerate(orders):
            for index in range(len(owners) + 1):
                pre, post = controller.before_after_for_gap(
                    device_id, index, fast)
                memoized = list(fast._pre.values()) + \
                    list(fast._post.values())
                assert not any(pre is memo or post is memo
                               for memo in memoized)
                pre_copy, post_copy = set(pre), set(post)
                pre.add(-1)         # what JiT's ``pre |= gap_pre`` does
                post.add(-2)
                assert controller.before_after_for_gap(
                    device_id, index, fast) == (pre_copy, post_copy)

    @given(tables())
    def test_paranoid_check_is_r_not_in_pre_r(self, table):
        """Invariant 4 as paranoid mode checks it: some routine
        precedes itself, retained orders included — on the same
        index."""
        controller = build_controller(*table).controller
        reference = ref_closure_index(controller.table)
        nodes = set(reference._successors) | set(reference._predecessors)
        contradicted = sorted(rid for rid in nodes
                              if rid in reference.pre(rid))
        assert controller.table.closure_index().cyclic() == contradicted
        if contradicted:
            with pytest.raises(LineageInvariantError):
                controller.table.verify_serialize_before()
        else:
            controller.table.verify_serialize_before()


class TestParanoidInvariant4:
    """What the old pairwise check could not see."""

    THREE_CYCLE = [[0, 1], [1, 2], [2, 0]]

    def test_three_device_cycle_has_no_contradicting_pair(self):
        controller = build_controller(self.THREE_CYCLE).controller
        with pytest.raises(LineageInvariantError, match="invariant 4"):
            controller.table.verify_serialize_before()
        with pytest.raises(LineageInvariantError, match=r"\[0, 1, 2\]"):
            controller.table.verify_all()

    def test_order_held_only_by_compacted_before(self):
        # Device 1 says R0 < R1; R1 left device 0 before R0 was placed
        # there: R1 < R0, which only the retained order (checkpointed
        # as ``compacted_before``) still holds.
        orders = [[0], [0, 1]]
        build_controller(orders).controller.table.verify_all()
        controller = build_controller(orders, [(1, 0)]).controller
        with pytest.raises(LineageInvariantError, match=r"\[0, 1\]"):
            controller.table.verify_all()

    def test_order_held_only_by_a_tail(self):
        # R1 is device 0's tail: every access placed there follows it.
        controller = build_controller([[0], [0, 1]],
                                      tails={0: (1, 0)}).controller
        with pytest.raises(LineageInvariantError, match=r"\[0, 1\]"):
            controller.table.verify_all()

    @pytest.mark.parametrize("orders, edges", [
        (THREE_CYCLE + [[]], []),
        ([[0], [0, 1], []], [(1, 0)]),
    ])
    def test_paranoid_controller_raises_at_the_next_placement(
            self, orders, edges):
        home = build_controller(orders, edges, paranoid=True)
        home.submit(routine("bystander", [(len(orders) - 1, "ON", 1.0)]))
        with pytest.raises(LineageInvariantError, match="invariant 4"):
            home.run()

    def test_downstream_of_a_cycle_is_not_reported(self):
        orders = [[0, 1, 3], [1, 0], [3, 4]]
        controller = build_controller(orders).controller
        assert controller.table.closure_index().cyclic() == [0, 1]


# -- (b) end to end: shipped vs references monkeypatched in ---------------------------

def run_micro_home(scheduler, execution, concurrency, long_pct, seed,
                   wal_dir=None):
    # The in-memory WAL folds every observation into its rolling digest
    # and seals it, beside a digest of the whole state (lineage table
    # and retained order included), in a checkpoint record every 64
    # observations.
    home = SafeHome(visibility="ev", scheduler=scheduler,
                    execution=execution, seed=seed, durability=True,
                    wal_dir=wal_dir)
    observed_types = set()
    observe = home.durability.observe

    def tally(type_, payload, time):
        observed_types.add(type_)
        observe(type_, payload, time)

    home.durability.observe = tally
    home.load_workload(generate_microbenchmark(
        MicroParams(routines=48, concurrency=concurrency, devices=6,
                    zipf_alpha=0.8, long_routine_pct=long_pct,
                    long_duration_s=120.0), seed=seed))
    result = home.run()
    report = home.report(check_final=False)
    home.close_wal()
    records = [(record.seq, record.time, record.type,
                record.canonical_payload()) for record in home.wal.records]
    return {
        "row": report.row(),
        "device_access_order": result.device_access_order,
        "scheduler_stats": dict(home.controller.scheduler_stats),
        "records": records,
        "observed": home.wal.observed(),
        "observed_types": observed_types,
    }


@contextmanager
def with_references():
    with mock.patch.object(LineageTable, "closure_index",
                           ref_closure_index), \
            mock.patch.object(EventualVisibilityController,
                              "before_after_for_gap",
                              ref_before_after_for_gap):
        yield


class TestEndToEnd:
    @pytest.mark.parametrize("execution", ("serial", "parallel"))
    @pytest.mark.parametrize("scheduler", ("timeline", "jit", "fcfs"))
    def test_micro_homes_identical_under_the_references(
            self, scheduler, execution):
        leased = 0
        for concurrency in (4, 32):
            for long_pct in (0.0, 10.0):
                cell = (scheduler, execution, concurrency, long_pct, 17)
                shipped = run_micro_home(*cell)
                with with_references():
                    reference = run_micro_home(*cell)
                for key in shipped:
                    assert shipped[key] == reference[key], (cell, key)
                assert {"lineage-placed", "lineage-compacted",
                        "checkpoint"} <= shipped["observed_types"], cell
                assert "checkpoint" in {record[2] for record
                                        in shipped["records"]}, cell
                leased += shipped["scheduler_stats"]["pre_leases"]
        # FCFS never pre-leases (§5), and a parallel plan acquires a
        # routine's devices together, leaving no SCHEDULED access to
        # place before; everywhere else non-tail gaps must have occurred.
        if scheduler != "fcfs" and execution == "serial":
            assert leased > 0, "no cell exercised a non-tail gap"

    def test_on_disk_wal_bytes_identical(self, tmp_path):
        def segment_hashes(directory: Path):
            return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(directory.iterdir())}

        cell = ("timeline", "serial", 32, 10.0, 23)
        shipped = run_micro_home(*cell, wal_dir=str(tmp_path / "shipped"))
        with with_references():
            reference = run_micro_home(
                *cell, wal_dir=str(tmp_path / "reference"))
        assert shipped == reference
        hashes = segment_hashes(tmp_path / "shipped")
        assert hashes and hashes == segment_hashes(tmp_path / "reference")


# -- (c) structure: the quadratic form cannot come back unnoticed ------------------------

class CountingIndex:
    """Counts the closure queries ``before_after_for_gap`` issues."""

    def __init__(self, index: ClosureIndex) -> None:
        self.index = index
        self.queries = 0

    def pre(self, node: int) -> set:
        self.queries += 1
        return self.index.pre(node)

    def post(self, node: int) -> set:
        self.queries += 1
        return self.index.post(node)


class TestStructure:
    N = 64

    def test_adjacency_is_the_chain(self):
        controller = build_controller([list(range(self.N))]).controller
        index = controller.table.closure_index()
        for adjacency in (index._successors, index._predecessors):
            endpoints = len(adjacency) + sum(map(len, adjacency.values()))
            assert endpoints <= 2 * (self.N - 1)
        assert index.pre(self.N - 1) == set(range(self.N - 1))
        assert index.post(0) == set(range(1, self.N))

    def test_ghosts_cost_one_edge_each_and_empty_sets_nothing(self):
        """Ghosts (routines whose accesses left a lineage while they
        ran) cost one edge per retained order, a tail one edge to the
        first live entry behind it, and a tail on an empty lineage
        nothing."""
        orders = [list(range(self.N)), [], [5]]
        edges = [(100, 101), (101, 102)]
        tails = {0: (101, 0), 1: (102, 0)}
        controller = build_controller(orders, edges, tails).controller
        index = controller.table.closure_index()
        # The chain, the two retained edges, and device 0's tail ->
        # first live entry; device 1's tail has no live entry to precede.
        assert sum(map(len, index._successors.values())) == self.N - 1 + 3
        assert index.pre(0) == {100, 101}
        assert 102 not in index._successors

    def test_a_gap_costs_at_most_two_queries(self):
        for tails in ({}, {0: (100, self.N // 2)}):
            controller = build_controller([list(range(self.N))],
                                          tails=tails).controller
            for index in range(self.N + 1):
                counting = CountingIndex(controller.table.closure_index())
                controller.before_after_for_gap(0, index, counting)
                assert counting.queries <= 2
