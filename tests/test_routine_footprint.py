"""The compiled routine footprint against the derivations it replaced.

A routine is compiled once, on first use, into one
:class:`~repro.core.routine.Footprint` held in a single declared field;
``lock_requests()`` (each span's final written value included),
``device_ids``, ``total_duration``, ``plan_shape`` and the
last-command-on-device lookup are views of it.  The per-view loops the
routine used to cache one by one live on here, and only here, as the
reference: over hypothesis-drawn contiguous command lists (reads,
writes, zero durations, one device, many devices) every view must equal
its reference, and reading them must leave nothing in the instance dict
but the declared fields.
"""

import copy
import dataclasses
import pickle

from hypothesis import given, strategies as st

from repro.core.command import Command
from repro.core.execution.plan import STRATEGIES, compile_shape
from repro.core.lineage import UNSET
from repro.core.routine import Footprint, LockRequest, Routine
from repro.hub.dispatcher import Dispatcher
from repro.hub.safehome import SafeHome

# -- references (the pre-footprint derivations) ------------------------------------


def ref_lock_requests(commands):
    """The old single-pass loop, as ``(device_id, offset, duration,
    command_indexes, writes, reads)`` rows."""
    requests = []
    elapsed = 0.0
    device_id = None
    start = 0.0
    indexes = []
    writes = reads = False
    for index, command in enumerate(commands):
        if command.device_id != device_id:
            if device_id is not None:
                requests.append((device_id, start, elapsed - start,
                                 tuple(indexes), writes, reads))
            device_id = command.device_id
            start = elapsed
            indexes = []
            writes = reads = False
        indexes.append(index)
        writes = writes or command.is_write
        reads = reads or command.is_read
        elapsed += command.duration
    if device_id is not None:
        requests.append((device_id, start, elapsed - start, tuple(indexes),
                         writes, reads))
    return requests


def ref_final_write_values(commands):
    values = {}
    for command in commands:
        if command.is_write:
            values[command.device_id] = command.value
    return values


def ref_last_index(commands):
    return {command.device_id: index
            for index, command in enumerate(commands)}


def ref_device_ids(commands):
    ordered = []
    for command in commands:
        if command.device_id not in ordered:
            ordered.append(command.device_id)
    return ordered


def ref_total_duration(commands):
    return sum(c.duration for c in commands)


# -- drawn routines --------------------------------------------------------------------

_DURATIONS = st.one_of(st.just(0.0), st.sampled_from([0.1, 1.0, 2.5, 600.0]),
                       st.floats(min_value=0.0, max_value=1e4,
                                 allow_nan=False), st.integers(0, 90))


@st.composite
def commands_(draw):
    """A contiguous command list: one group of 1-4 commands per device,
    each a read or a write (values repeat, so last-write-wins shows)."""
    devices = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8,
                            unique=True))
    commands = []
    for device_id in devices:
        for _ in range(draw(st.integers(1, 4))):
            duration = draw(_DURATIONS)
            if draw(st.booleans()) and draw(st.booleans()):
                commands.append(Command(device_id=device_id, is_read=True,
                                        duration=duration))
            else:
                commands.append(Command(
                    device_id=device_id, duration=duration,
                    value=draw(st.sampled_from(["ON", "OFF", 1, 2])),
                    must=draw(st.booleans())))
    return commands


def _read_every_view(routine):
    return (routine.lock_requests(), routine.device_ids,
            routine.total_duration,
            [routine.plan_shape(strategy) for strategy in STRATEGIES],
            [routine.footprint.last_index(command.device_id)
             for command in routine.commands])


# -- the footprint equals the references ---------------------------------------------------


@given(commands=commands_())
def test_footprint_equals_the_reference_derivations(commands):
    routine = Routine(name="r", commands=commands)
    footprint = routine.footprint
    assert [(r.device_id, r.offset, r.duration, r.command_indexes,
             r.writes, r.reads) for r in footprint.requests] == \
        ref_lock_requests(commands)
    final = ref_final_write_values(commands)
    written = {r.device_id: r.final_value
               for r in routine.lock_requests() if r.writes}
    assert written == final
    assert list(written) == list(final)   # order too
    assert [r.final_value for r in footprint.requests] == \
        [final.get(r.device_id, UNSET) for r in footprint.requests]
    assert {device_id: footprint.last_index(device_id)
            for device_id in routine.device_ids} == ref_last_index(commands)
    assert footprint.last_index(-7) == -1
    assert routine.device_ids == ref_device_ids(commands)
    total = routine.total_duration
    assert total == ref_total_duration(commands)
    assert type(total) is type(ref_total_duration(commands))
    for strategy in STRATEGIES:
        assert routine.plan_shape(strategy) == \
            compile_shape(commands, strategy)
        assert routine.plan_shape(strategy) is routine.plan_shape(strategy)


@given(commands=commands_())
def test_views_keep_their_types(commands):
    routine = Routine(name="r", commands=commands)
    assert type(routine.device_ids) is list
    assert type(routine.lock_requests()) is list
    assert all(type(r) is LockRequest for r in routine.lock_requests())


@given(commands=commands_())
def test_views_write_only_declared_fields(commands):
    routine = Routine(name="r", commands=commands)
    _read_every_view(routine)
    declared = {f.name for f in dataclasses.fields(Routine)}
    assert set(vars(routine)) == declared
    assert type(routine._footprint) is Footprint


@given(commands=commands_())
def test_conflicts_with_matches_set_intersection(commands):
    routine = Routine(name="r", commands=commands)
    for device_id in (0, 7, 41):
        other = Routine(name="o", commands=[Command(device_id=device_id)])
        assert routine.conflicts_with(other) == \
            bool(set(routine.device_ids) & set(other.device_ids))
        assert other.conflicts_with(routine) == \
            routine.conflicts_with(other)


# -- representation -------------------------------------------------------------------------


def test_command_and_lock_request_keep_no_dict():
    routine = Routine(name="r", commands=[
        Command(device_id=0, value="ON", duration=1.0),
        Command(device_id=1, is_read=True)])
    for obj in (*routine.commands, *routine.footprint.requests,
                routine.footprint):
        assert not hasattr(obj, "__dict__")


def test_command_equality_and_repr_are_field_wise():
    a = Command(device_id=3, value="ON", duration=2.0, must=False)
    assert a == Command(device_id=3, value="ON", duration=2.0, must=False)
    assert a != Command(device_id=3, value="OFF", duration=2.0, must=False)
    assert repr(a) == ("Command(device_id=3, value='ON', duration=2.0, "
                       "must=False, is_read=False, undoable=True, "
                       "undo_value=None, name='')")


def test_lock_request_equality_and_command_indexes():
    routine = Routine(name="r", commands=[
        Command(device_id=2, value="A", duration=1.0),
        Command(device_id=2, value="B", duration=1.0),
        Command(device_id=5, is_read=True)])
    coffee, sensor = routine.lock_requests()
    assert coffee == LockRequest(2, 0.0, 2.0, 0, 1, True, False, "B")
    assert coffee.command_indexes == (0, 1)
    assert sensor.command_indexes == (2,)
    assert sensor.final_value is UNSET
    assert "final_value='B'" in repr(coffee)


def test_unset_prints_and_pickles_stably():
    """A read-only span prints no address, and ``UNSET`` comes back
    from a pickle or a deep copy as itself."""
    sensor, = Routine(name="r", commands=[
        Command(device_id=5, is_read=True)]).lock_requests()
    assert "0x" not in repr(sensor)
    assert "final_value=UNSET" in repr(sensor)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(UNSET, protocol)) is UNSET
    assert pickle.loads(pickle.dumps(sensor)).final_value is UNSET
    assert copy.deepcopy(UNSET) is UNSET


# -- sharing ------------------------------------------------------------------------------------


def test_rerun_shares_the_footprint():
    """An OCC retry is its invocation's next attempt over the routine
    itself: no copy, so one footprint and one compiled plan."""
    home = SafeHome(visibility="occ")
    for name in ("p0", "p1"):
        home.add_device("plug", name)
    slow = home.invoke(Routine(name="slow", commands=[
        Command(device_id=0, value="S", duration=1.0),
        Command(device_id=1, value="S", duration=8.0)]), at=0.0)
    home.invoke(Routine(name="fast", commands=[
        Command(device_id=0, value="F", duration=1.0)]), at=0.2)
    home.run()
    retries = [run for run in home.controller.runs
               if run.invocation == slow.invocation and run is not slow]
    assert retries
    for retry in retries:
        assert retry.routine is slow.routine
        assert retry.routine.footprint is slow.routine.footprint


def test_trigger_firings_share_the_bank_footprint():
    home = SafeHome(visibility="ev")
    home.add_device("plug", "p0")
    home.register_routine(Routine(name="tick", commands=[
        Command(device_id=0, value="ON", duration=1.0)]))
    dispatcher = Dispatcher(home.sim, home.registry, home.bank,
                            home.controller)
    dispatcher.every("tick", period=5.0, count=3, trigger_name="timer")
    home.run()
    bank_routine = home.bank.get("tick")
    assert len(dispatcher.firings) == 3
    for firing in dispatcher.firings:
        assert firing.run.routine is bank_routine
        assert firing.trigger_name == "timer"
        assert firing.run.routine.footprint is bank_routine.footprint
