"""Differential tests for the compiled command plan and EV's indexed
parallel pump.

A routine's command DAG is compiled once (``Routine.plan_shape``) and
each run walks it on counters (``CommandPlan``: a remaining-dependency
count per node, a program-ordered ready list); EV's parallel dispatcher
wakes only the runs registered as blocked on a released device.  The
definitions they replaced live on here, and only here, as references:

* :class:`RefPlan` — the edge-set DAG built per run, a dependency set
  per node, whose ready list is a scan of every node;
* :func:`ref_pump_released` — the full-scan pump: every release pumps
  every unfinished run in the home.

The shipped forms must agree with them:

* (a) over hypothesis-drawn command lists (repeated devices, reads as
  barriers, both strategies) and drawn issue/finish walks: after every
  step, the ready list, every node's ``ready_at`` and the whole
  snapshot row set, and each lock wait ``mark_issued`` returns;
* (b) end to end, on EV-parallel micro homes (10 seeds x rho 4/8/32 x
  timeline / fcfs / jit) run once as shipped and once with both
  references: the report, the per-run outcomes and lock waits, device
  access orders and scheduler stats.  One exception, by design: under
  JiT a run's lock wait no longer counts the time it sat arrived but
  unplaced, because the full scan started its plan before placement.
  There the shipped wait may only be smaller.
"""

import dataclasses
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core.command import Command
from repro.core.ev import EventualVisibilityController
from repro.core.execution import engine
from repro.core.execution.plan import (STRATEGIES, CommandPlan, NodeState,
                                       compile_shape)
from repro.hub.safehome import SafeHome
from repro.workloads.micro import MicroParams, generate_microbenchmark


# -- the references --------------------------------------------------------------------

class RefNode:
    def __init__(self, index: int, command: Command) -> None:
        self.index = index
        self.command = command
        self.deps = set()
        self.dependents = []
        self.state = NodeState.PENDING
        self.ready_at = 0.0
        self.issued_at = None


class RefPlan:
    """The edge-set DAG, built per run; readiness is a full scan."""

    def __init__(self, routine, strategy: str = "serial",
                 now: float = 0.0) -> None:
        self.strategy = strategy
        self.nodes = [RefNode(i, c) for i, c in enumerate(routine.commands)]
        if strategy == "serial":
            for node in self.nodes[1:]:
                self._edge(node.index - 1, node.index)
        else:
            last_on_device, last_barrier = {}, None
            for node in self.nodes:
                prev = last_on_device.get(node.command.device_id)
                if prev is not None:
                    self._edge(prev, node.index)
                if node.command.is_read:
                    for earlier in self.nodes[:node.index]:
                        self._edge(earlier.index, node.index)
                    last_barrier = node.index
                elif last_barrier is not None:
                    self._edge(last_barrier, node.index)
                last_on_device[node.command.device_id] = node.index
        for node in self.nodes:
            if not node.deps:
                node.state = NodeState.READY
                node.ready_at = now

    def _edge(self, before: int, after: int) -> None:
        if before != after and before not in self.nodes[after].deps:
            self.nodes[after].deps.add(before)
            self.nodes[before].dependents.append(after)

    # The surface the dispatcher reads, by scanning.
    @property
    def ready(self):
        return [node.index for node in self.nodes
                if node.state is NodeState.READY]

    @property
    def state(self):
        return [node.state for node in self.nodes]

    @property
    def remaining(self):
        return sum(node.state is not NodeState.DONE for node in self.nodes)

    def snapshot(self) -> tuple:
        return (self.strategy, tuple(
            (node.index, node.state.value, node.ready_at, node.issued_at)
            for node in self.nodes))

    def mark_issued(self, index: int, now: float = 0.0) -> float:
        node = self.nodes[index]
        if node.state is not NodeState.READY:
            raise ValueError(f"node {index} is not ready")
        node.state = NodeState.ISSUED
        node.issued_at = now
        return max(0.0, now - node.ready_at)

    def mark_done(self, index: int, now: float = 0.0) -> None:
        self.nodes[index].state = NodeState.DONE
        for dep_index in self.nodes[index].dependents:
            dependent = self.nodes[dep_index]
            if dependent.state is NodeState.PENDING and all(
                    self.nodes[d].state is NodeState.DONE
                    for d in dependent.deps):
                dependent.state = NodeState.READY
                dependent.ready_at = now


def ref_pump_released(self, device_ids, also=None) -> None:
    """Pump every unfinished run, in submission order."""
    for run in list(self.runs):
        if not run.status.finished:
            self._pump(run)


@contextmanager
def with_references():
    with mock.patch.object(engine, "CommandPlan", RefPlan), \
            mock.patch.object(EventualVisibilityController,
                              "_pump_released", ref_pump_released):
        yield


# -- (a) the counter plan walks like the edge-set plan ---------------------------------

COMMAND_LISTS = st.lists(
    st.tuples(st.integers(0, 3), st.booleans(), st.booleans()),
    min_size=1, max_size=12).map(lambda specs: [
        Command(device_id=device, value=None if read else "ON",
                duration=1.0, is_read=read, must=must)
        for device, read, must in specs])


def routine_of(commands):
    """A stand-in routine: the plan reads only ``plan_shape`` (and the
    reference ``commands``), so device repeats need not be contiguous."""
    shapes = {}

    def plan_shape(strategy):
        if strategy not in shapes:
            shapes[strategy] = compile_shape(commands, strategy)
        return shapes[strategy]

    return SimpleNamespace(commands=commands, plan_shape=plan_shape)


def assert_same(plan: CommandPlan, ref: RefPlan) -> None:
    assert plan.ready == ref.ready
    assert plan.ready_at == [node.ready_at for node in ref.nodes]
    assert plan.remaining == ref.remaining
    assert plan.snapshot() == ref.snapshot()


@given(commands=COMMAND_LISTS, strategy=st.sampled_from(STRATEGIES),
       start=st.integers(0, 4), data=st.data())
def test_counter_plan_walks_like_the_edge_set_plan(commands, strategy,
                                                    start, data):
    routine = routine_of(commands)
    plan = CommandPlan(routine, strategy, now=float(start))
    ref = RefPlan(routine, strategy, now=float(start))
    assert_same(plan, ref)
    now = float(start)
    issued = []
    while plan.remaining:
        now += data.draw(st.integers(0, 3), label="advance") / 2
        finish = issued and (not plan.ready or data.draw(st.booleans(),
                                                         label="finish"))
        if finish:
            index = issued.pop(data.draw(
                st.integers(0, len(issued) - 1), label="which issued"))
            plan.mark_done(index, now)
            ref.mark_done(index, now)
        else:
            index = data.draw(st.sampled_from(plan.ready), label="issue")
            assert plan.mark_issued(index, now) == ref.mark_issued(index,
                                                                   now)
            issued.append(index)
        assert_same(plan, ref)
    assert not issued and not plan.ready


@pytest.mark.parametrize("commands", [
    [Command(device_id=d, value="ON", duration=1.0) for d in (0, 1, 0)],
    [Command(device_id=0, value=None, duration=1.0, is_read=True)] * 3,
])
def test_the_shape_counts_each_edge_once(commands):
    """``A, B, A`` and reads behind reads: a dependency reached two
    ways (program order on the device and the barrier) counts once."""
    dep_counts, dependents = compile_shape(commands, "parallel")
    ref = RefPlan(routine_of(commands), "parallel")
    assert dep_counts == tuple(len(node.deps) for node in ref.nodes)
    assert [sorted(later) for later in dependents] == \
        [sorted(node.dependents) for node in ref.nodes]


# -- (b) EV-parallel micro homes: shipped vs both references ---------------------------

def run_micro_home(scheduler, concurrency, seed):
    home = SafeHome(visibility="ev", scheduler=scheduler,
                    execution="parallel", seed=seed)
    home.load_workload(generate_microbenchmark(MicroParams(
        routines=40, concurrency=concurrency, devices=8, zipf_alpha=0.8,
        long_routine_pct=10.0, long_duration_s=120.0), seed=seed))
    blocked = []
    wait_for = home.controller._wait_for
    home.controller._wait_for = lambda *args: (blocked.append(args),
                                               wait_for(*args))
    result = home.run()
    return {
        "blocked": len(blocked),
        "report": home.report(check_final=False),
        "runs": [(run.routine_id, run.status.value, run.start_time,
                  run.finish_time, run.lock_wait_s) for run in result.runs],
        "device_access_order": result.device_access_order,
        "scheduler_stats": dict(home.controller.scheduler_stats),
    }


def without_lock_wait(observed):
    return dict(observed,
                report=dataclasses.replace(observed["report"], lock_wait={}),
                runs=[row[:-1] for row in observed["runs"]])


@pytest.mark.parametrize("scheduler", ("timeline", "fcfs", "jit"))
def test_micro_homes_identical_under_the_references(scheduler):
    blocked = 0
    for concurrency in (4, 8, 32):
        for seed in range(10):
            cell = (scheduler, concurrency, seed)
            shipped = run_micro_home(*cell)
            with with_references():
                reference = run_micro_home(*cell)
            blocked += shipped.pop("blocked")
            reference.pop("blocked")
            if scheduler == "jit":
                # The one exception (module docstring): pre-placement
                # time is no longer lock wait.
                for ours, theirs in zip(shipped["runs"], reference["runs"]):
                    assert ours[-1] <= theirs[-1], (cell, ours, theirs)
                shipped = without_lock_wait(shipped)
                reference = without_lock_wait(reference)
            for key in shipped:
                assert shipped[key] == reference[key], (cell, key)
    # Ready commands were refused their lineage entry, so the waiter
    # index (not just the placement pump) carried these homes.  JiT
    # places a routine only once it can run, so nothing blocks there.
    assert blocked or scheduler == "jit", \
        "no cell blocked a ready command on its lineage"
