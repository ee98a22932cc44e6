"""Differential tests for EV's maintained precedence closure.

The lineage table keeps the transitive closure of the serialization
order current edge by edge (``LineageTable.closure``: one bit per placed
routine, a preSet and a postSet mask each).  The construction from
scratch it replaced lives on here, and only here, as the reference: a
graph of the adjacent entries of every lineage, each device's tail ->
the first live entry behind it, and the retained order's edges, walked
node by node.
The maintained closure must agree with it *exactly*:

* after every mutation of hypothesis-drawn tables (per-device orders
  placed through ``LineageTable.insert``, so contradictions and cycles
  occur, then exits that leave retained edges and tails) and of
  hypothesis-drawn table walks (placement at any legal gap, acquire,
  release, ``leave``, ``compact_commit``, ``retire``): every placed
  routine's preSet and postSet, every gap of every device against the
  all-pairs definition, and paranoid Invariant 4;
* after every placement, commit and rollback of seeded micro homes
  (timeline / jit / fcfs x serial / parallel, 0 / 10 / 30 % long
  routines, failed devices), and the closure is empty at quiescence;
* end to end, on seeded micro homes run once as shipped and once with
  the reference answering every gap: report row, device access orders,
  scheduler stats, the journaled record stream and the closing seal;
* structurally: a gap reads one preSet and one postSet, and slots are
  recycled, so neither the per-routine rebuild nor a leak comes back
  unnoticed.
"""

import hashlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core.controller import ControllerConfig
from repro.core.ev import EventualVisibilityController
from repro.core.lineage import LockAccess, LockStatus
from repro.errors import LineageInvariantError
from repro.hub.safehome import SafeHome
from repro.workloads.micro import MicroParams, generate_microbenchmark
from tests.conftest import Home, routine


# -- the from-scratch definitions (reference only) ------------------------------

Graph = Dict[int, Set[int]]


def ref_graph(table) -> Tuple[Graph, Graph]:
    """(successors, predecessors) of one table state, built the way the
    deleted ``LineageTable.closure_index()`` built them."""
    successors: Graph = {}
    predecessors: Graph = {}

    def edge(before, after):
        successors.setdefault(before, set()).add(after)
        predecessors.setdefault(after, set()).add(before)

    for lineage in table.lineages():
        owners = lineage.owners()
        for before, after in zip(owners, owners[1:]):
            edge(before, after)
        tail = table.order.frontier.get(lineage.device_id)
        if tail is not None and tail[1] < len(owners):
            edge(tail[0], owners[tail[1]])
    for before, afters in table.order.successors.items():
        for after in afters:
            edge(before, after)
    return successors, predecessors


def ref_reach(starts: Iterable[int], graph: Graph) -> set:
    """Everything one or more edges away from ``starts``; plain walk."""
    seen: set = set()
    frontier = [node for start in starts for node in graph.get(start, ())]
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(graph.get(node, ()))
    return seen


def ref_closure(table) -> Dict[int, Tuple[set, set]]:
    """node -> (preSet, postSet) for every node of the reference graph."""
    successors, predecessors = ref_graph(table)
    return {node: (ref_reach([node], predecessors),
                   ref_reach([node], successors))
            for node in set(successors) | set(predecessors)}


def ref_gap(table, device_id: int, index: int) -> Tuple[set, set]:
    """The all-pairs preSet/postSet of an access placed at ``index``:
    every earlier owner (and the tail, from its position on) with
    everything before it; every later owner with everything after."""
    successors, predecessors = ref_graph(table)
    owners = table.lineage(device_id).owners()
    earlier = owners[:index]
    tail = table.order.frontier.get(device_id)
    if tail is not None and index >= tail[1]:
        earlier.append(tail[0])
    later = owners[index:]
    return (set(earlier) | ref_reach(earlier, predecessors),
            set(later) | ref_reach(later, successors))


def ref_before_after_for_gap(controller, device_id: int, index: int
                             ) -> Tuple[int, int]:
    """:func:`ref_gap` as the masks the schedulers read."""
    bit = controller.table.closure.bit
    pre, post = ref_gap(controller.table, device_id, index)
    return sum(bit[rid] for rid in pre), sum(bit[rid] for rid in post)


def maintained(table) -> Dict[int, Tuple[set, set]]:
    closure = table.closure
    return {rid: (set(closure.members(closure.pre[rid])),
                  set(closure.members(closure.post[rid])))
            for rid in closure.bit}


def assert_nodes_current(table) -> None:
    reference = ref_closure(table)
    held = maintained(table)
    assert set(reference) <= set(held), "a linked routine holds no bit"
    for rid, sets in held.items():
        assert sets == reference.get(rid, (set(), set())), rid


def assert_gaps_current(controller) -> None:
    table = controller.table
    members = table.closure.members
    for lineage in list(table.lineages()):
        for index in range(len(lineage.entries) + 1):
            pre, post = controller.before_after_for_gap(
                lineage.device_id, index)
            assert (set(members(pre)), set(members(post))) == \
                ref_gap(table, lineage.device_id, index), \
                (lineage.device_id, index)


def assert_cycles_current(table) -> None:
    contradicted = sorted(rid for rid, (pre, _post)
                          in ref_closure(table).items() if rid in pre)
    assert table.closure.cyclic() == contradicted
    if contradicted:
        with pytest.raises(LineageInvariantError, match="invariant 4"):
            table.verify_serialize_before()
    else:
        table.verify_serialize_before()


# -- (a) synthetic tables ----------------------------------------------------------

def place(table, device_id: int, routine_id: int, index=None) -> None:
    entries = table.lineage(device_id).entries
    table.insert(len(entries) if index is None else index,
                 LockAccess(routine_id=routine_id, device_id=device_id,
                            planned_start=10.0 * len(entries),
                            duration=1.0))


def release_through(table, device_id: int, index: int) -> None:
    """Acquire and release every entry up to ``index``, in order."""
    lineage = table.lineage(device_id)
    for entry in lineage.entries[:index + 1]:
        if entry.status is LockStatus.SCHEDULED:
            lineage.acquire(entry.routine_id, 0.0)
        if entry.status is LockStatus.ACQUIRED:
            lineage.release(entry.routine_id, 0.0)


def build_controller(orders, edges=(), paranoid=False):
    """A controller whose table holds ``orders`` (one owner list per
    device, placed through the table) and the retained ``edges``, each
    left by a placement on a spare device that then left it again."""
    home = Home(model="ev", n_devices=len(orders) + 1,
                config=ControllerConfig(paranoid=paranoid))
    table = home.controller.table
    for device_id, owners in enumerate(orders):
        for routine_id in owners:
            place(table, device_id, routine_id)
    spare = len(orders)
    for before, after in edges:
        place(table, spare, before)
        place(table, spare, after)
        table.leave(before, spare)
        table.leave(after, spare)
    return home


@st.composite
def tables(draw):
    """``(n_devices, steps)``: placements ``("place", device, routine)``
    at a device's tail gap, in any order over a small population (so
    contradictions and cycles occur), interleaved with exits ``("exit",
    device, position, released)``; a released exit releases the prefix
    through it first, so it leaves a tail for later placements."""
    n_devices = draw(st.integers(1, 6))
    devices = st.integers(0, n_devices - 1)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("place"), devices, st.integers(0, 9)),
        st.tuples(st.just("exit"), devices, st.integers(0, 9),
                  st.booleans())), max_size=30))
    return n_devices, steps


def build_table(n_devices, steps):
    """The drawn table, yielded after every step."""
    controller = build_controller([[]] * n_devices).controller
    table = controller.table
    placed = set()
    yield controller
    for kind, device_id, *args in steps:
        entries = table.lineage(device_id).entries
        if kind == "place":
            if (device_id, args[0]) in placed:
                continue
            placed.add((device_id, args[0]))
            place(table, device_id, args[0])
        else:
            if not entries:
                continue
            position, released = args
            index = position % len(entries)
            if released:
                release_through(table, device_id, index)
            table.leave(entries[index].routine_id, device_id)
        yield controller


class TestSyntheticTables:
    @given(tables())
    def test_pre_and_post_equal_for_every_node(self, drawn):
        for controller in build_table(*drawn):
            assert_nodes_current(controller.table)

    @given(tables())
    def test_every_gap_of_every_device_equal(self, drawn):
        for controller in build_table(*drawn):
            assert_gaps_current(controller)

    @given(tables())
    def test_returned_sets_are_the_callers_to_mutate(self, drawn):
        """The masks are plain ints: what JiT's ``pre |= gap_pre`` does
        to them rebinds the caller's name and leaves the closure as it
        was."""
        for controller in build_table(*drawn):
            closure = controller.table.closure
            before = (dict(closure.pre), dict(closure.post))
            for lineage in list(controller.table.lineages()):
                for index in range(len(lineage.entries) + 1):
                    pre, post = controller.before_after_for_gap(
                        lineage.device_id, index)
                    assert type(pre) is int and type(post) is int
                    pre |= 1
                    post |= 2
            assert (closure.pre, closure.post) == before

    @given(tables())
    def test_paranoid_check_is_r_not_in_pre_r(self, drawn):
        """Invariant 4 as paranoid mode checks it: some routine is in
        its own postSet, retained orders included."""
        for controller in build_table(*drawn):
            assert_cycles_current(controller.table)


class TestEveryLinkSite:
    """One pinned sequence per place an order enters the table, checked
    after every step: deleting any one site fails its case."""

    @staticmethod
    def checked(steps) -> None:
        for controller in build_table(1, steps):
            assert_nodes_current(controller.table)

    def test_a_placement_links_both_neighbours(self):
        table = build_controller([[1, 3]]).controller.table
        place(table, 0, 2, index=1)          # pre-leased between R1, R3
        assert_nodes_current(table)
        place(table, 0, 0, index=0)
        assert_nodes_current(table)

    def test_an_exit_keeps_both_neighbours(self):
        self.checked([("place", 0, 1), ("place", 0, 2), ("place", 0, 3),
                      ("exit", 0, 1, False), ("exit", 0, 0, True)])

    def test_an_exit_right_behind_the_tail_keeps_following_it(self):
        self.checked([("place", 0, 1), ("exit", 0, 0, True),
                      ("place", 0, 2), ("place", 0, 3),
                      ("exit", 0, 0, False)])

    def test_a_placement_behind_the_tail_follows_it(self):
        self.checked([("place", 0, 1), ("exit", 0, 0, True),
                      ("place", 0, 2), ("place", 0, 3)])

    def test_a_new_tail_keeps_the_old_tails_order(self):
        # R8 leaves from behind R7 and takes over as tail; only the old
        # tail R1 ordered R1 < R7.
        self.checked([("place", 0, 1), ("exit", 0, 0, True),
                      ("place", 0, 7), ("place", 0, 8),
                      ("exit", 0, 1, True)])


class TableWalk:
    """Random table operations shaped like the controller's: a placement
    lands its routine's accesses in legal gaps whose preSet and postSet
    stay disjoint (all tails otherwise), a commit releases and compacts
    or leaves each device, an abort leaves them all, and every finish
    retires the routine."""

    def __init__(self, data, n_devices: int) -> None:
        self.data = data
        self.n_devices = n_devices
        self.controller = Home(model="ev", n_devices=n_devices).controller
        self.table = self.controller.table
        self.finished: Set[int] = set()
        self.running: List[int] = []
        self.next_id = 0

    def draw(self, strategy):
        return self.data.draw(strategy)

    def legal_gaps(self, device_id: int) -> List[int]:
        entries = self.table.lineage(device_id).entries
        first = len(entries)
        while first and entries[first - 1].status is LockStatus.SCHEDULED:
            first -= 1
        return list(range(first, len(entries) + 1))

    def place(self) -> None:
        routine_id = self.next_id
        self.next_id += 1
        devices = self.draw(st.lists(
            st.integers(0, self.n_devices - 1), min_size=1, max_size=3,
            unique=True))
        pre = post = 0
        chosen = []
        for device_id in devices:
            options = []
            for index in self.legal_gaps(device_id):
                gap_pre, gap_post = self.controller.before_after_for_gap(
                    device_id, index)
                if not (pre | gap_pre) & (post | gap_post):
                    options.append((index, gap_pre, gap_post))
            if not options:
                chosen = [(d, None) for d in devices]   # all tails
                break
            index, gap_pre, gap_post = self.draw(st.sampled_from(options))
            pre, post = pre | gap_pre, post | gap_post
            chosen.append((device_id, index))
        for device_id, index in chosen:
            place(self.table, device_id, routine_id, index)
        self.running.append(routine_id)

    def step(self, device_id: int) -> None:
        """Acquire the device's next access, or release its holder."""
        lineage = self.table.lineage(device_id)
        for entry in lineage.entries:
            if entry.status is LockStatus.SCHEDULED:
                lineage.acquire(entry.routine_id, 0.0)
                return
            if entry.status is LockStatus.ACQUIRED:
                lineage.release(entry.routine_id, 0.0)
                return

    def finish(self, routine_id: int, commit: bool) -> None:
        held = [(lineage.device_id, lineage.entry_for(routine_id))
                for lineage in self.table.lineages()
                if lineage.entry_for(routine_id) is not None]
        if commit and any(entry.status is LockStatus.SCHEDULED
                          for _device, entry in held):
            commit = False      # never ran there: abort instead
        for device_id, entry in held:
            if commit and entry.status is LockStatus.ACQUIRED:
                self.table.lineage(device_id).release(routine_id, 0.0)
            if commit and self.draw(st.booleans()):     # it wrote
                self.table.compact_commit(routine_id, device_id)
            else:
                self.table.leave(routine_id, device_id)
        self.running.remove(routine_id)
        self.finished.add(routine_id)
        self.table.retire(routine_id, self.finished.__contains__)

    def run(self, steps: int) -> Iterable[None]:
        for _ in range(steps):
            move = self.draw(st.sampled_from(
                ("place", "step", "commit", "abort")))
            if move == "place" or not self.running:
                self.place()
            elif move == "step":
                self.step(self.draw(st.integers(0, self.n_devices - 1)))
            else:
                self.finish(self.draw(st.sampled_from(self.running)),
                            commit=move == "commit")
            yield
        while self.running:
            self.finish(self.running[0], commit=False)
            yield


class TestTableWalks:
    @given(st.data(), st.integers(1, 4))
    def test_a_table_walk_keeps_the_closure_current(self, data, n_devices):
        walk = TableWalk(data, n_devices)
        for _ in walk.run(data.draw(st.integers(1, 40))):
            assert_nodes_current(walk.table)
            assert_gaps_current(walk.controller)
            assert not walk.table.closure.cyclic()
        closure = walk.table.closure
        assert not closure.bit and not closure.pre and not closure.post
        assert walk.table.order.snapshot() == {}


class TestParanoidInvariant4:
    """What a pairwise check could not see."""

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
        assert controller.table.order.successors == {1: {0}}
        with pytest.raises(LineageInvariantError, match=r"\[0, 1\]"):
            controller.table.verify_all()

    def test_order_held_only_by_a_tail(self):
        # R1 ran on device 0 and left it released: it is the tail, and
        # every access placed there follows it.
        controller = build_controller([[1], [0, 1]]).controller
        table = controller.table
        release_through(table, 0, 0)
        table.leave(1, 0)
        assert table.order.frontier == {0: (1, 0)}
        place(table, 0, 0)
        with pytest.raises(LineageInvariantError, match=r"\[0, 1\]"):
            table.verify_all()

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
        assert controller.table.closure.cyclic() == [0, 1]


# -- (b) whole micro homes, checked after every table change ---------------------------

def watch(controller, check) -> List[int]:
    """Run ``check`` after every placement, commit and rollback."""
    calls = [0]
    for name in ("place_run", "_finish_point", "_rollback"):
        method = getattr(controller, name)

        def checked(*args, _method=method):
            _method(*args)
            check()
            calls[0] += 1

        setattr(controller, name, checked)
    return calls


HOME_CELLS = [(scheduler, execution, long_pct)
              for scheduler in ("timeline", "jit", "fcfs")
              for execution in ("serial", "parallel")
              for long_pct in (0.0, 10.0, 30.0)]


@pytest.mark.parametrize("scheduler, execution, long_pct", HOME_CELLS)
def test_micro_home_closure_stays_current(scheduler, execution, long_pct):
    home = SafeHome(visibility="ev", scheduler=scheduler,
                    execution=execution, seed=3)
    home.load_workload(generate_microbenchmark(MicroParams(
        routines=24, concurrency=8, devices=5, zipf_alpha=0.8,
        long_routine_pct=long_pct, long_duration_s=120.0,
        failed_device_pct=20.0, must_pct=50.0), seed=3))
    controller = home.controller

    def check():
        assert_nodes_current(controller.table)
        assert_gaps_current(controller)

    checks = watch(controller, check)
    home.run()
    assert checks[0] > 24
    closure = controller.table.closure
    assert not closure.bit and not closure.pre and not closure.post


# -- (c) end to end: shipped vs the reference answering every gap ------------------------

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
    with mock.patch.object(EventualVisibilityController,
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


# -- (d) structure: the rebuild and a slot leak cannot come back unnoticed -----------------

class CountingDict(dict):
    """Counts reads by key."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestStructure:
    N = 64

    def test_adjacency_is_the_chain(self):
        controller = build_controller([list(range(self.N))]).controller
        closure = controller.table.closure
        members = closure.members
        assert set(members(closure.pre[self.N - 1])) == \
            set(range(self.N - 1))
        assert set(members(closure.post[0])) == set(range(1, self.N))
        assert not controller.table.order.successors

    def test_ghosts_hold_one_bit_until_pruned(self):
        """A routine that left its lineages while others ran keeps its
        bit until nothing unfinished precedes it; then it leaves the
        closure, and only its successors lose the bit."""
        controller = build_controller([[0, 1, 2]]).controller
        table = controller.table
        finished = {1}
        table.leave(1, 0)       # R1 rolls back between R0 and R2
        table.retire(1, finished.__contains__)
        closure = table.closure
        assert set(closure.bit) == {0, 1, 2}
        assert set(closure.members(closure.post[0])) == {1, 2}
        finished.add(0)
        release_through(table, 0, 0)
        table.leave(0, 0)
        table.retire(0, finished.__contains__)      # cascades to R1
        assert set(closure.bit) == {2}
        assert closure.pre[2] == closure.post[2] == 0

    def test_a_cascade_drops_predecessors_first(self):
        """R5 precedes R3 and both finish: the pruned routines leave the
        closure in cascade order, each a source when dropped, whatever
        order their ids would iterate in."""
        controller = build_controller([[5, 3]]).controller
        table = controller.table
        release_through(table, 0, 1)
        finished = {3}
        table.leave(3, 0)
        table.retire(3, finished.__contains__)
        assert set(table.closure.bit) == {3, 5}
        finished.add(5)
        table.leave(5, 0)
        table.retire(5, finished.__contains__)
        closure = table.closure
        assert not closure.bit and not closure.pre and not closure.post

    def test_a_gap_costs_at_most_two_queries(self):
        for tail_ahead in (None, self.N // 2):
            controller = build_controller([list(range(self.N))]).controller
            table = controller.table
            if tail_ahead is not None:
                release_through(table, 0, tail_ahead)
                table.leave(tail_ahead, 0)
            closure = table.closure
            for index in range(len(table.lineage(0).entries) + 1):
                closure.pre = CountingDict(closure.pre)
                closure.post = CountingDict(closure.post)
                controller.before_after_for_gap(0, index)
                assert closure.pre.reads <= 1 and closure.post.reads <= 1

    def test_slots_are_recycled(self):
        """A long run of short-lived routines stays as wide as the most
        routines ever holding a bit at once: four live, one tail."""
        controller = build_controller([[]]).controller
        table = controller.table
        finished: Set[int] = set()
        for routine_id in range(500):
            place(table, 0, routine_id)
            if routine_id >= 3:
                done = routine_id - 3
                release_through(table, 0, 0)
                table.compact_commit(done, 0)
                finished.add(done)
                table.retire(done, finished.__contains__)
        widest = max(table.closure.bit.values()).bit_length()
        assert sorted(table.closure.bit) == [497, 498, 499]
        assert widest <= 5
