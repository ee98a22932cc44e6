"""A settled run's packed history against the live records it replaced.

When a run settles (commit, or abort plus rollback) with nothing in
flight, it drops its :class:`~repro.core.execution.plan.CommandPlan`
and swaps its list of :class:`~repro.core.command.CommandExecution` for
an :class:`~repro.core.command.ExecutionHistory`; a device keeps its
writes as a columnar :class:`~repro.devices.device.WriteLog`.  Over
hypothesis-drawn seeded micro homes (five models x both plans, device
failures with detections, aborts and rollbacks, OCC retries, read
commands, and a hub crash answered by ``recover()``):

* every finished run's packed executions equal, field by field and in
  order, the live records captured the moment it was packed;
* every device's columnar log equals the tuple list a reference kept
  beside ``Device.apply``, and so does the ``RunResult``'s copy;
* nothing reachable from a finished run is a plan or a live execution
  record, and nothing reachable from a result's write logs is a
  per-write tuple.
"""

import enum
import gc
from array import array
from contextlib import contextmanager
from types import FunctionType, ModuleType
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core.command import Command, CommandExecution, ExecutionHistory
from repro.core.controller import Controller, RoutineStatus, RunResult
from repro.core.execution.plan import CommandPlan
from repro.core.routine import Routine
from repro.devices.device import Device, WriteLog
from repro.hub.durability import DurabilityConfig
from repro.hub.safehome import SafeHome
from repro.workloads.micro import MicroParams, generate_microbenchmark

MODELS = ("wv", "gsv", "psv", "ev", "occ")
EXECUTIONS = ("serial", "parallel")


def fields(execution: CommandExecution) -> tuple:
    return (execution.command, execution.started_at, execution.finished_at,
            execution.applied, execution.skipped, execution.rolled_back,
            execution.observed)


@contextmanager
def recorded():
    """Yields ``(live, writes)``: per packed run the fields of the live
    records it held at the moment of packing, and per device the
    ``(time, value, source)`` tuples every landed write appended."""
    live, writes = {}, {}
    pack, apply = Controller._pack_history, Device.apply

    def capture(controller, run):
        assert type(run.executions) is list
        live[run] = [fields(execution) for execution in run.executions]
        pack(controller, run)

    def apply_and_keep(device, value, now, source=None):
        apply(device, value, now, source)       # raises when failed
        writes.setdefault(device, []).append((now, value, source))

    with mock.patch.object(Controller, "_pack_history", capture), \
            mock.patch.object(Device, "apply", apply_and_keep):
        yield live, writes


def reachable(root):
    """Every object reachable from ``root``, not entering types,
    modules, functions or enum members (they reach everything)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, ModuleType, FunctionType, enum.Enum)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def is_write_row(obj) -> bool:
    return type(obj) is tuple and len(obj) == 3 and type(obj[0]) is float


# -- homes ---------------------------------------------------------------------------

def micro_home(model, execution, seed, routines=24, devices=6,
               concurrency=4, failed_device_pct=25.0, reads=True):
    """A small durable home whose failed devices put detections, aborts,
    rollbacks and best-effort skips in its runs, plus two routines that
    open on a read."""
    home = SafeHome(visibility=model, execution=execution, seed=seed,
                    detector_ping_period_s=5.0,
                    durability=DurabilityConfig(checkpoint_every=8))
    home.load_workload(generate_microbenchmark(
        MicroParams(routines=routines, concurrency=concurrency,
                    devices=devices, long_routine_pct=0.0,
                    short_duration_s=4.0, must_pct=70.0,
                    failed_device_pct=failed_device_pct,
                    restart_after_s=40.0), seed=seed))
    if reads:
        for index in range(2):
            home.invoke(Routine(f"peek{index}", [
                Command(device_id=index % devices, is_read=True,
                        duration=1.0),
                Command(device_id=(index + 1) % devices, value="ON",
                        duration=2.0, must=False)]), at=3.0 + 5.0 * index)
    return home


def run_home(home, crash_at=None, mode="replay") -> RunResult:
    if crash_at is not None:
        home.crash(at=crash_at)
        home.run()
        if home.crashed:
            home.recover(mode=mode)
    return home.run()


def check(home, result, live, writes) -> None:
    controller = home.controller
    finished = [run for run in controller.runs if run.done]
    assert finished and all(run in live for run in finished)
    for run, rows in live.items():
        assert type(run.executions) is ExecutionHistory
        assert run.plan is None
        assert len(run.executions) == len(rows)
        assert [fields(view) for view in run.executions] == rows
        assert all(view.command is row[0]
                   for view, row in zip(run.executions, rows))
        if rows:
            assert fields(run.executions[-1]) == rows[-1]
        for obj in reachable(run):
            assert not isinstance(obj, (CommandPlan, CommandExecution))
    for device in home.registry:
        log = device.write_log
        assert type(log) is WriteLog and type(log.times) is array
        assert log.times.typecode == "d"
        assert list(log) == writes.get(device, [])
        assert log == result.device_write_logs[device.device_id]
    for log in result.device_write_logs.values():
        assert not any(is_write_row(obj) for obj in reachable(log))


homes = st.fixed_dictionaries({
    "model": st.sampled_from(MODELS),
    "execution": st.sampled_from(EXECUTIONS),
    "seed": st.integers(0, 10_000),
    "routines": st.sampled_from([8, 24]),
    "devices": st.sampled_from([2, 6]),         # 2: everything conflicts
    "concurrency": st.sampled_from([1, 4, 6]),
    "failed_device_pct": st.sampled_from([0.0, 25.0]),
    "reads": st.booleans(),
})


@given(spec=homes,
       crash_at=st.sampled_from([None, None, 6.0, 12.0, 19.0]),
       mode=st.sampled_from(["replay", "policy"]))
def test_packed_history_equals_the_live_records(spec, crash_at, mode):
    with recorded() as (live, writes):
        home = micro_home(**spec)
        result = run_home(home, crash_at, mode)
        check(home, result, live, writes)


# -- the drawn homes cover the hard cases -----------------------------------------------

class TestInputsCoverTheHardCases:
    def test_failures_give_skips_aborts_rollbacks_and_reads(self):
        with recorded() as (live, writes):
            home = micro_home("ev", "parallel", seed=3)
            result = run_home(home)
            check(home, result, live, writes)
        rows = [row for run_rows in live.values() for row in run_rows]
        assert any(row[4] for row in rows)                  # skipped
        assert any(row[5] for row in rows)                  # rolled back
        assert any(row[6] is not None for row in rows)      # observed
        assert result.aborted and result.detection_events

    def test_occ_retries_are_packed(self):
        with recorded() as (live, writes):
            home = micro_home("occ", "parallel", seed=15, devices=2,
                              concurrency=6, failed_device_pct=0.0)
            result = run_home(home)
            check(home, result, live, writes)
        assert len(home.controller.retries_used) > 5

    def test_crash_and_recover_pack_both_lives(self):
        with recorded() as (live, writes):
            home = micro_home("gsv", "serial", seed=15)
            crashed = home.controller
            result = run_home(home, crash_at=12.0, mode="policy")
            check(home, result, live, writes)
        assert home.controller is not crashed
        assert any(run in live for run in crashed.runs)
        assert any(run.abort_reason.startswith("hub crash")
                   for run in home.controller.runs)


# -- the packed record itself -------------------------------------------------------------

def test_out_of_order_and_foreign_commands_keep_their_identity():
    """A parallel run issues out of program order; a command from
    outside the routine (a driver-delivered write in a unit test) is
    kept by the history's own command table."""
    commands = [Command(device_id=0, value="A"),
                Command(device_id=1, is_read=True)]
    executions = [
        CommandExecution(commands[1], 0.5, 1.0, applied=True,
                         observed="OFF"),
        CommandExecution(commands[0], 0.0, None, skipped=True)]
    packed = ExecutionHistory(commands, executions)
    assert packed.commands is commands
    assert [fields(v) for v in packed] == [fields(e) for e in executions]
    assert fields(packed[-2]) == fields(executions[0])
    with pytest.raises(IndexError):
        packed[2]
    stranger = CommandExecution(Command(device_id=0, value="B"))
    packed = ExecutionHistory(commands, [executions[1], stranger])
    assert [v.command for v in packed] == [commands[0], stranger.command]
    assert packed[1].command is stranger.command
    assert packed[1].started_at is None and not packed[1].applied
    assert len(ExecutionHistory(commands, [])) == 0


def test_a_run_finished_with_a_command_in_flight_packs_when_it_lands():
    """An abort called directly (not requested) while a command is in
    flight settles the run at once; its history is packed when the
    last in-flight command resolves, not before."""
    home = SafeHome(visibility="wv")
    home.add_device("plug", "p0")
    run = home.controller.submit(Routine("r", [
        Command(device_id=0, value="ON", duration=5.0)]))
    home.sim.call_at(1.0, home.controller.abort, run, "now")
    home.run()
    assert run.status is RoutineStatus.ABORTED
    assert type(run.executions) is ExecutionHistory
    execution, = run.executions
    assert execution.applied and execution.rolled_back
    assert execution.finished_at > 5.0
