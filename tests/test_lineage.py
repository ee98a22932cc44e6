"""Tests for the lineage table: invariants 1-4, status inference (Fig 8),
commit compaction (Fig 7), gaps, and rollback targets (§4.3)."""

import math

import pytest

from repro.core.lineage import (UNSET, Lineage, LineageTable, LockAccess,
                                LockStatus)
from repro.errors import LineageInvariantError
from tests.test_closure_equivalence import ref_closure


def access(rid, dev=0, start=0.0, dur=1.0, status=LockStatus.SCHEDULED,
           **kwargs):
    entry = LockAccess(routine_id=rid, device_id=dev, planned_start=start,
                       duration=dur, **kwargs)
    entry.status = status
    return entry


def never_finished(_rid):
    return False


def put(table, rid, dev=0, status=LockStatus.SCHEDULED, **kwargs):
    """Append through the table, then run the access up to ``status``."""
    lineage = table.lineage(dev)
    table.insert(len(lineage.entries), access(rid, dev=dev, **kwargs))
    if status is not LockStatus.SCHEDULED:
        lineage.acquire(rid, 0.0)
    if status is LockStatus.RELEASED:
        lineage.release(rid, 0.0)


def pre_of(table, rid):
    closure = table.closure
    return set(closure.members(closure.pre[rid]))


def post_of(table, rid):
    closure = table.closure
    return set(closure.members(closure.post[rid]))


class TestInsertion:
    def test_append_and_lookup(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        lineage.append(access(2))
        assert lineage.owners() == [1, 2]
        assert lineage.index_of(2) == 1
        assert lineage.entry_for(3) is None

    def test_duplicate_routine_rejected(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        with pytest.raises(LineageInvariantError):
            lineage.append(access(1))

    def test_wrong_device_rejected(self):
        lineage = Lineage(0)
        with pytest.raises(LineageInvariantError):
            lineage.append(access(1, dev=5))

    def test_insert_before_scheduled_ok(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        lineage.insert(0, access(2))
        assert lineage.owners() == [2, 1]

    def test_insert_scheduled_before_acquired_rejected(self):
        lineage = Lineage(0)
        lineage.append(access(1, status=LockStatus.ACQUIRED))
        with pytest.raises(LineageInvariantError):
            lineage.insert(0, access(2))

    def test_remove(self):
        table = LineageTable()
        put(table, 1)
        assert table.leave(1, 0).routine_id == 1
        assert table.leave(1, 0) is None
        assert table.lineage(0).owners() == []


class TestLockLifecycle:
    def test_acquire_release(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        entry = lineage.acquire(1, now=2.0)
        assert entry.status is LockStatus.ACQUIRED
        assert entry.acquired_at == 2.0
        lineage.release(1, now=3.0)
        assert entry.status is LockStatus.RELEASED
        assert entry.released_at == 3.0

    def test_acquire_out_of_order_rejected(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        lineage.append(access(2))
        with pytest.raises(LineageInvariantError):
            lineage.acquire(2, now=0.0)

    def test_double_acquire_rejected(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        lineage.acquire(1, now=0.0)
        with pytest.raises(LineageInvariantError):
            lineage.acquire(1, now=1.0)

    def test_release_without_acquire_rejected(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        with pytest.raises(LineageInvariantError):
            lineage.release(1, now=0.0)

    def test_can_acquire_requires_released_prefix(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        lineage.append(access(2))
        assert lineage.can_acquire(1, finished=never_finished)
        assert not lineage.can_acquire(2, finished=never_finished)
        lineage.acquire(1, now=0.0)
        lineage.release(1, now=1.0)
        assert lineage.can_acquire(2, finished=never_finished)

    def test_dirty_read_guard(self):
        # A reader may not acquire past a released access whose
        # unfinished owner wrote the device (§4.1 post-lease rule).
        lineage = Lineage(0)
        writer = access(1, writes=True)
        lineage.append(writer)
        lineage.append(access(2, reads=True, writes=False))
        lineage.acquire(1, now=0.0)
        lineage.release(1, now=1.0)
        assert not lineage.can_acquire(2, finished=never_finished,
                                       wants_read=True)
        assert lineage.can_acquire(2, finished=lambda rid: rid == 1,
                                   wants_read=True)
        # Writers are unaffected ("last writer wins").
        assert lineage.can_acquire(2, finished=never_finished,
                                   wants_read=False)


class TestLocalInvariants:
    def test_invariant2_single_acquired(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        lineage.entries[0].status = LockStatus.ACQUIRED
        lineage.append(access(2))
        lineage.entries[1].status = LockStatus.ACQUIRED
        with pytest.raises(LineageInvariantError):
            lineage.check_local_invariants()

    def test_invariant3_order(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        lineage.append(access(2))
        lineage.entries[1].status = LockStatus.RELEASED  # S before R
        with pytest.raises(LineageInvariantError):
            lineage.check_local_invariants()

    def test_invariant1_planned_overlap(self):
        lineage = Lineage(0)
        lineage.append(access(1, start=0.0, dur=5.0))
        lineage.entries[0].status = LockStatus.SCHEDULED
        entry = access(2, start=3.0, dur=5.0)
        lineage.entries.append(entry)  # bypass insert checks
        assert lineage.planned_overlaps()


class TestStatusInference:
    """Fig 8's three cases."""

    def test_acquired_entry_wins(self):
        lineage = Lineage(0, committed_state=10)
        first = access(1)
        first.status = LockStatus.RELEASED
        first.applied_value = 15
        lineage.entries.append(first)
        second = access(2)
        second.status = LockStatus.ACQUIRED
        second.applied_value = 25
        lineage.entries.append(second)
        assert lineage.inferred_state() == 25

    def test_rightmost_released_next(self):
        lineage = Lineage(0, committed_state=10)
        for rid, value in ((1, 12), (2, 15)):
            entry = access(rid)
            entry.status = LockStatus.RELEASED
            entry.applied_value = value
            lineage.entries.append(entry)
        assert lineage.inferred_state() == 15

    def test_committed_state_fallback(self):
        lineage = Lineage(0, committed_state=10)
        lineage.append(access(1))  # scheduled, nothing applied
        assert lineage.inferred_state() == 10


class TestRollbackTargets:
    def test_previous_applied_entry(self):
        lineage = Lineage(0, committed_state="OFF")
        first = access(1)
        first.status = LockStatus.RELEASED
        first.applied_value = "ON"
        lineage.entries.append(first)
        second = access(2, status=LockStatus.ACQUIRED)
        second.applied_value = "DIM"
        lineage.entries.append(second)
        assert lineage.rollback_target(2) == "ON"

    def test_committed_fallback(self):
        lineage = Lineage(0, committed_state="OFF")
        lineage.append(access(1))
        assert lineage.rollback_target(1) == "OFF"

    def test_is_last_writer(self):
        lineage = Lineage(0)
        first = access(1)
        first.status = LockStatus.RELEASED
        first.applied_value = "ON"
        lineage.entries.append(first)
        assert lineage.is_last_writer(1)
        second = access(2, status=LockStatus.ACQUIRED)
        second.applied_value = "OFF"
        lineage.entries.append(second)
        assert not lineage.is_last_writer(1)
        assert lineage.is_last_writer(2)

    def test_never_applied_is_not_last_writer(self):
        lineage = Lineage(0)
        lineage.append(access(1))
        assert not lineage.is_last_writer(1)


class TestGaps:
    def test_empty_lineage_single_tail_gap(self):
        lineage = Lineage(0)
        gaps = lineage.gaps(now=5.0)
        assert len(gaps) == 1
        assert gaps[0].start == 5.0
        assert gaps[0].end == math.inf
        assert gaps[0].index == 0

    def test_gap_between_scheduled_entries(self):
        lineage = Lineage(0)
        lineage.append(access(1, start=10.0, dur=5.0))
        gaps = lineage.gaps(now=0.0)
        # gap before the entry [0,10), then tail after 15.
        assert gaps[0].start == 0.0
        assert gaps[0].end == 10.0
        assert gaps[0].index == 0
        assert gaps[-1].start == 15.0
        assert gaps[-1].index == 1

    def test_acquired_entry_projection(self):
        lineage = Lineage(0)
        lineage.append(access(1, dur=10.0))
        lineage.acquire(1, now=2.0)
        gaps = lineage.gaps(now=4.0)
        assert gaps[0].start == 12.0  # acquired_at + duration

    def test_overdue_acquired_projects_to_now(self):
        lineage = Lineage(0)
        lineage.append(access(1, dur=1.0))
        lineage.acquire(1, now=0.0)
        gaps = lineage.gaps(now=50.0)
        assert gaps[0].start == 50.0

    def test_released_entries_ignored(self):
        lineage = Lineage(0)
        lineage.append(access(1, dur=1.0))
        lineage.acquire(1, now=0.0)
        lineage.release(1, now=1.0)
        gaps = lineage.gaps(now=2.0)
        assert gaps[0].index == 1  # insertion after the released entry
        assert gaps[0].start == 2.0

    def test_gap_fits_and_placement(self):
        lineage = Lineage(0)
        lineage.append(access(1, start=10.0, dur=5.0))
        gap = lineage.gaps(now=0.0)[0]
        assert gap.fits(0.0, 10.0)
        assert not gap.fits(0.0, 10.5)
        assert not gap.fits(6.0, 5.0)
        assert gap.placement(3.0) == 3.0


class TestLineageTable:
    def test_committed_lookup_lazy(self):
        table = LineageTable(committed_lookup=lambda d: f"init-{d}")
        assert table.lineage(3).committed_state == "init-3"

    def test_remove_routine_across_devices(self):
        table = LineageTable()
        put(table, 1, dev=0)
        put(table, 1, dev=1)
        put(table, 2, dev=2)
        assert [device_id for device_id in (0, 1, 2)
                if table.leave(1, device_id) is not None] == [0, 1]
        assert table.lineage(2).owners() == [2]
        assert not table.order.successors

    def test_compaction_removes_left_entries(self):
        table = LineageTable()
        lineage = table.lineage(0)
        put(table, 1, status=LockStatus.RELEASED, applied_value="A")
        put(table, 2, status=LockStatus.RELEASED, applied_value="B")
        put(table, 3)
        compacted = table.compact_commit(2, 0)
        assert compacted == [1]
        assert lineage.owners() == [3]
        assert pre_of(table, 3) == {1, 2}

    def test_every_exit_keeps_its_order(self):
        table = LineageTable()
        put(table, 1, status=LockStatus.RELEASED)
        put(table, 2, status=LockStatus.RELEASED)
        put(table, 3)
        put(table, 4, dev=1)
        put(table, 1, dev=1)
        # A finished non-writer leaves from between R1 and R3: it keeps
        # both orders and, released, is the tail later placements follow.
        table.leave(2, 0)
        assert table.lineage(0).owners() == [1, 3]
        assert table.order.successors == {1: {2}, 2: {3}}
        assert table.order.frontier == {0: (2, 1)}
        assert pre_of(table, 3) == {4, 1, 2}
        assert ref_closure(table)[3][0] == {4, 1, 2}
        # A rolled-back SCHEDULED access right behind the tail keeps its
        # order too, but is no tail: nothing placed later must follow it.
        table.leave(3, 0)
        assert table.order.successors == {1: {2}, 2: {3}}
        assert table.order.frontier == {0: (2, 1)}
        # R1 leaves ahead of the tail: the tail now has none ahead.
        assert table.compact_commit(1, 0) == []
        assert table.order.frontier == {0: (2, 0)}

    def test_a_new_tail_keeps_the_old_tails_order(self):
        table = LineageTable()
        for rid in (5, 1):
            put(table, rid, status=LockStatus.RELEASED)
        assert table.compact_commit(1, 0) == [5]
        assert table.order.frontier == {0: (1, 0)}
        for rid in (7, 8):
            put(table, rid, status=LockStatus.RELEASED)
        # R8 leaves from behind R7, so it becomes the tail; R1's order
        # before R7, which only the old tail implied, must stay — in the
        # retained order, not only in the closure, which never forgets.
        table.leave(8, 0)
        assert table.order.frontier == {0: (8, 1)}
        assert post_of(table, 5) == {1, 7, 8}
        assert ref_closure(table)[5][1] == {1, 7, 8}

    def test_a_finished_routine_leaves_once_nothing_precedes_it(self):
        table = LineageTable()
        for rid in (1, 2, 3):
            put(table, rid, status=LockStatus.RELEASED)
        assert table.compact_commit(3, 0) == [1, 2]
        assert table.order.frontier == {0: (3, 0)}
        finished = {2, 3}
        table.retire(3, finished.__contains__)
        table.retire(2, finished.__contains__)
        assert table.order.successors == {1: {2}, 2: {3}}  # R1 runs on
        assert post_of(table, 1) == {2, 3}
        finished.add(1)
        table.retire(1, finished.__contains__)      # cascades
        assert not table.order.successors and not table.order.predecessors
        assert table.order.frontier == {}
        assert table.order.snapshot() == {}
        assert not table.closure.bit

    def test_compaction_refuses_dropping_acquired(self):
        table = LineageTable()
        lineage = table.lineage(0)
        # Force the (invariant-3-violating) state "ACQUIRED left of
        # RELEASED" to confirm compaction defends itself.
        busy = access(1, dev=0, status=LockStatus.ACQUIRED)
        lineage.entries.append(busy)
        mine = access(2, dev=0)
        mine.status = LockStatus.RELEASED
        lineage.entries.append(mine)
        with pytest.raises(LineageInvariantError):
            table.compact_commit(2, 0)

    def test_invariant4_detects_contradiction(self):
        table = LineageTable()
        put(table, 1, dev=0)
        put(table, 2, dev=0)
        put(table, 2, dev=1)
        put(table, 1, dev=1)
        with pytest.raises(LineageInvariantError):
            table.verify_serialize_before()

    def test_invariant4_accepts_consistent_orders(self):
        table = LineageTable()
        put(table, 1, dev=0, start=0.0)
        put(table, 2, dev=0, start=2.0)
        put(table, 1, dev=1, start=1.0)
        put(table, 2, dev=1, start=3.0)
        table.verify_serialize_before()
        table.verify_all()
