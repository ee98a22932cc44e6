"""Unit tests for the policy-agnostic execution core
(`repro.core.execution`): lock table, command-DAG planner, device FIFO.
"""

import pytest

from repro.core.command import Command
from repro.core.execution.locks import (GLOBAL, LockMode, LockTable,
                                        lease_deadline)
from repro.core.execution.plan import CommandPlan, NodeState
from repro.core.execution.queues import DeviceQueues
from repro.core.routine import Routine


def cmd(device, duration=1.0, read=False, must=True):
    return Command(device_id=device, value=None if read else "ON",
                   duration=duration, is_read=read, must=must)


class TestLockTable:
    def test_exclusive_blocks_and_fifo_grants(self):
        table = LockTable()
        assert table.acquire(1, 7, now=0.0)
        assert not table.acquire(2, 7, now=1.0)
        assert not table.acquire(3, 7, now=2.0)
        granted = table.release(1, 7, now=5.0)
        # FIFO: routine 2 first, and 3 stays queued behind it.
        assert [g.owner for g in granted] == [2]
        assert table.holds(2, 7)
        assert table.waiter_count(7) == 1
        assert table.wait_seconds[2] == pytest.approx(4.0)

    def test_shared_locks_coexist_and_block_writer(self):
        table = LockTable()
        assert table.acquire(1, 5, mode=LockMode.SHARED)
        assert table.acquire(2, 5, mode=LockMode.SHARED)
        assert not table.acquire(3, 5, mode=LockMode.EXCLUSIVE)
        # A later reader must not overtake the queued writer (FIFO).
        assert not table.acquire(4, 5, mode=LockMode.SHARED)
        table.release(1, 5)
        granted = table.release(2, 5)
        assert [g.owner for g in granted] == [3]

    def test_shared_readers_granted_together(self):
        table = LockTable()
        assert table.acquire(1, 5)
        assert not table.acquire(2, 5, mode=LockMode.SHARED)
        assert not table.acquire(3, 5, mode=LockMode.SHARED)
        granted = table.release(1, 5)
        # The whole compatible FIFO prefix is promoted at once.
        assert [g.owner for g in granted] == [2, 3]

    def test_reacquire_is_idempotent(self):
        table = LockTable()
        assert table.acquire(1, GLOBAL)
        assert table.acquire(1, GLOBAL)
        assert table.holdings(1) == [GLOBAL]

    def test_forget_drops_holds_and_waits(self):
        table = LockTable()
        table.acquire(1, 5)
        table.acquire(2, 6)
        assert not table.acquire(1, 6)       # 1 waits on 6
        assert not table.acquire(3, 5)       # 3 waits on 5
        granted = table.forget(1, now=2.0)
        assert [g.owner for g in granted] == [3]
        assert table.waiting_on(1) == []
        assert table.holdings(1) == []

    def test_wait_for_graph_cycle_and_victim(self):
        table = LockTable()
        # Incremental acquisition in opposite orders: classic deadlock.
        table.acquire(1, 10)
        table.acquire(2, 11)
        assert not table.acquire(1, 11)
        assert table.find_cycle() is None    # 1→2 only: no cycle yet
        assert not table.acquire(2, 10)
        edges = table.wait_for_edges()
        assert (1, 2) in edges and (2, 1) in edges
        victim = table.detect_deadlock()
        assert victim == 2                   # deterministic: youngest
        # Aborting the victim unblocks the survivor.
        granted = table.forget(victim)
        assert [g.owner for g in granted] == [1]
        assert table.detect_deadlock() is None

    def test_fifo_waiters_are_part_of_blocking_relation(self):
        table = LockTable()
        table.acquire(1, 5)
        table.acquire(2, 5)
        table.acquire(3, 5)
        assert (3, 2) in table.wait_for_edges()

    def test_lease_expiry_reported_only_when_contended(self):
        table = LockTable()
        deadline = lease_deadline(0.0, duration=10.0, leniency=1.1,
                                  slack=1.0)
        assert deadline == pytest.approx(12.0)
        table.acquire(1, 5, now=0.0, deadline=deadline)
        assert table.overdue(now=20.0) == []     # no waiter: harmless
        table.acquire(2, 5, now=1.0)
        overdue = table.overdue(now=20.0)
        assert [g.owner for g in overdue] == [1]
        assert table.overdue(now=11.0) == []     # not yet expired


def plan(commands, strategy, now=0.0):
    return CommandPlan(Routine("r", commands), strategy, now)


class TestCommandPlan:
    def test_serial_strategy_is_a_chain(self):
        chain = plan([cmd(1), cmd(2), cmd(3)], "serial")
        assert chain.ready == [0]
        assert chain.mark_issued(0) == 0.0
        chain.mark_done(0)
        assert chain.ready == [1]

    def test_parallel_disjoint_devices_all_ready(self):
        disjoint = plan([cmd(1), cmd(2), cmd(3)], "parallel")
        assert disjoint.ready == [0, 1, 2]
        assert disjoint.state == [NodeState.READY] * 3

    def test_parallel_same_device_keeps_program_order(self):
        ordered = plan([cmd(1), cmd(1), cmd(2)], "parallel")
        assert ordered.ready == [0, 2]
        ordered.mark_issued(0)
        ordered.mark_done(0)
        assert ordered.ready == [1, 2]

    def test_parallel_read_is_a_barrier(self):
        barrier = plan([cmd(1), cmd(2, read=True), cmd(3)], "parallel")
        # The read waits for everything before it; device 3 waits for
        # the read (a condition gates what follows).
        assert barrier.ready == [0]
        barrier.mark_issued(0)
        barrier.mark_done(0)
        assert barrier.ready == [1]
        barrier.mark_issued(1)
        barrier.mark_done(1)
        assert barrier.ready == [2]

    def test_lifecycle_and_lock_wait(self):
        pair = plan([cmd(1), cmd(1)], "parallel", now=2.0)
        assert pair.ready_at[0] == 2.0
        assert pair.mark_issued(0, now=5.0) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            pair.mark_issued(1)              # still pending
        pair.mark_done(0, now=6.0)
        assert pair.state[1] is NodeState.READY and pair.ready_at[1] == 6.0
        assert pair.remaining == 1
        pair.mark_issued(1, now=6.0)
        pair.mark_done(1, now=7.0)
        assert pair.remaining == 0 and pair.ready == []

    def test_shape_is_compiled_once_per_routine_and_strategy(self):
        routine = Routine("r", [cmd(1), cmd(1), cmd(2, read=True), cmd(3)])
        shape = routine.plan_shape("parallel")
        assert shape == ((0, 1, 2, 1), ((1, 2), (2,), (3,), ()))
        assert routine.plan_shape("parallel") is shape
        assert CommandPlan(routine, "parallel")._dependents is shape[1]
        assert routine.plan_shape("serial") == \
            ((0, 1, 1, 1), ((1,), (2,), (3,), ()))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            plan([cmd(1)], "speculative")


class TestDeviceQueues:
    def test_fifo_one_in_flight_per_device(self):
        queues = DeviceQueues()
        fired = []
        assert queues.submit(1, lambda: fired.append("a") or True)
        assert not queues.submit(1, lambda: fired.append("b") or True)
        assert fired == ["a"]
        assert queues.depth(1) == 1
        queues.complete(1)
        assert fired == ["a", "b"]
        assert queues.busy(1)
        queues.complete(1)
        assert not queues.busy(1)

    def test_moot_thunks_do_not_hold_the_device(self):
        queues = DeviceQueues()
        fired = []
        assert queues.submit(1, lambda: fired.append("a") or True)
        queues.submit(1, lambda: False)              # routine died queued
        queues.submit(1, lambda: fired.append("c") or True)
        queues.complete(1)
        assert fired == ["a", "c"]

    def test_distinct_devices_independent(self):
        queues = DeviceQueues()
        fired = []
        queues.submit(1, lambda: fired.append(1) or True)
        queues.submit(2, lambda: fired.append(2) or True)
        assert fired == [1, 2]
