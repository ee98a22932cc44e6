"""Differential tests for the report path's O(n log n) passes.

The quadratic definitions the passes replaced live on here, and only
here, as reference functions; every rewritten pass must agree with its
reference *exactly* on seeded micro homes under every visibility model
and plan strategy — with failure detections, aborted routines
(rollback-tagged writes), runs cut short, coinciding timestamps and
write logs handed over out of time order.

The serial-equivalence check replays a witness order before it
searches; the search alone is the reference for its verdict, on any
drawn witness and on seeded micro homes of all five models, WV (where
the witness fails and the search decides) included.
"""

import random
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core.command import Command, CommandExecution
from repro.core.controller import (ControllerConfig, RoutineRun,
                                   RoutineStatus, RunResult)
from repro.core.routine import Routine
from repro.core.visibility import make_controller
from repro.devices.driver import Driver
from repro.devices.failures import FailureInjector, FailurePlan
from repro.devices.network import LatencyModel
from repro.devices.registry import DeviceRegistry
from repro.errors import SafeHomeError
from repro.hub.failure_detector import FailureDetector
from repro.hub.safehome import SafeHome
from repro.metrics import congruence, oracle
from repro.metrics.collector import analyze
from repro.metrics.oracle import check_run
from repro.metrics.congruence import (_exists_exhaustive,
                                      _exists_last_writer, _writer_id,
                                      effective_writes, end_state_of_order,
                                      serial_end_state_exists,
                                      temporary_incongruence,
                                      temporary_incongruence_events)
from repro.metrics.serialization import (place_detection_events,
                                         reconstruct_serial_order)
from repro.metrics.stats import swap_distance
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.base import attach_streams
from repro.workloads.micro import MicroParams, generate_microbenchmark


# -- the quadratic definitions (reference only) --------------------------------

def ref_swap_distance(order, reference) -> int:
    common = set(order) & set(reference)
    a = [x for x in order if x in common]
    rank = {x: i for i, x in enumerate(a)}
    b = [rank[x] for x in reference if x in common]
    inversions = 0
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            if b[i] > b[j]:
                inversions += 1
    return inversions


def _ref_writes(result: RunResult) -> Dict[int, List]:
    return {
        device_id: [(t, _writer_id(src)) for (t, _v, src) in log
                    if _writer_id(src) is not None]
        for device_id, log in result.device_write_logs.items()
    }


def ref_temporary_incongruence(result: RunResult) -> float:
    if not result.runs:
        return 0.0
    writes = _ref_writes(result)
    suffered = 0
    for run in result.runs:
        if run.start_time is None:
            continue
        finish = run.finish_time if run.finish_time is not None \
            else float("inf")
        hit = False
        for execution in run.executions:
            if not (execution.applied and execution.command.is_write):
                continue
            for (t, writer) in writes.get(execution.command.device_id, ()):
                if writer != run.routine_id \
                        and execution.started_at < t < finish:
                    hit = True
        if hit:
            suffered += 1
    return suffered / len(result.runs)


def ref_temporary_incongruence_events(result: RunResult) -> int:
    writes = _ref_writes(result)
    events = 0
    for run in result.runs:
        if run.start_time is None:
            continue
        finish = run.finish_time if run.finish_time is not None \
            else float("inf")
        for execution in run.executions:
            if not (execution.applied and execution.command.is_write):
                continue
            events += sum(
                1 for (t, writer)
                in writes.get(execution.command.device_id, ())
                if writer != run.routine_id
                and execution.started_at < t < finish)
    return events


def ref_reconstruct_serial_order(result: RunResult) -> List[int]:
    committed = [run.routine_id for run in result.runs
                 if run.status is RoutineStatus.COMMITTED]
    committed_set = set(committed)
    successors = {rid: set() for rid in committed}
    indegree = {rid: 0 for rid in committed}
    for sequence in result.device_access_order.values():
        chain = [rid for rid in sequence if rid in committed_set]
        for before, after in zip(chain, chain[1:]):
            if after not in successors[before]:
                successors[before].add(after)
                indegree[after] += 1
    finish_time = {run.routine_id: run.finish_time for run in result.runs}
    order: List[int] = []
    ready = sorted((rid for rid, deg in indegree.items() if deg == 0),
                   key=lambda rid: (finish_time[rid], rid))
    while ready:
        rid = ready.pop(0)
        order.append(rid)
        for succ in sorted(successors[rid]):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort(key=lambda r: (finish_time[r], r))
    if len(order) != len(committed):
        raise SafeHomeError(
            "cycle in device access precedences: execution was not "
            "serializable")
    return order


def ref_place_detection_events(result: RunResult,
                               order: List[int]) -> List[Tuple]:
    positions = {rid: i for i, rid in enumerate(order)}
    timeline: List[Tuple] = [("routine", rid) for rid in order]
    inserts: List[Tuple[int, Tuple]] = []
    last_access_time: Dict[Tuple[int, int], float] = {}
    for run in result.runs:
        if run.status is not RoutineStatus.COMMITTED:
            continue
        for execution in run.executions:
            key = (execution.command.device_id, run.routine_id)
            if execution.finished_at is not None:
                last_access_time[key] = max(
                    last_access_time.get(key, 0.0), execution.finished_at)
    for kind, device_id, when in result.detection_events:
        after = -1
        for rid in order:
            touched_at = last_access_time.get((device_id, rid))
            if touched_at is not None and touched_at <= when:
                after = max(after, positions[rid])
        inserts.append((after, (kind, device_id, when)))
    for after, event in sorted(inserts, key=lambda x: (-x[0], -x[1][2])):
        timeline.insert(after + 1, event)
    return timeline


def ref_serial_end_state_exists(observed, writes, initial,
                                exhaustive_limit: int = 8,
                                witness=None) -> bool:
    """The search alone, as it decided before a witness went first."""
    ids = list(writes)
    if len(ids) <= exhaustive_limit:
        return _exists_exhaustive(observed, writes, initial, ids)
    return _exists_last_writer(observed, writes, initial, ids)


@contextmanager
def search_only():
    """The oracle and ``analyze`` with the reference search patched in."""
    with mock.patch.object(congruence, "serial_end_state_exists",
                           ref_serial_end_state_exists), \
            mock.patch.object(oracle, "serial_end_state_exists",
                              ref_serial_end_state_exists):
        yield


def _outcome(fn, *args) -> Any:
    """A call's value, or the error it raised, for exact comparison."""
    try:
        return fn(*args)
    except SafeHomeError as error:
        return ("raised", type(error), str(error))


# -- seeded micro homes --------------------------------------------------------

MODELS = ("wv", "gsv", "psv", "ev", "occ")
EXECUTIONS = ("serial", "parallel")


def run_micro(model: str, execution: str, seed: int, routines: int = 24,
              devices: int = 5, concurrency: int = 4,
              failures: Tuple[Tuple[int, float, Optional[float]], ...] = (),
              until: Optional[float] = None) -> RunResult:
    """One Table-3 micro home (short commands, few devices, so routines
    collide), optionally with scripted failures and a cut-off time."""
    workload = generate_microbenchmark(
        MicroParams(routines=routines, concurrency=concurrency,
                    devices=devices, long_routine_pct=0.0,
                    short_duration_s=4.0, must_pct=80.0), seed=seed)
    sim = Simulator()
    registry = DeviceRegistry()
    for type_name, name in workload.devices:
        registry.create(type_name, name)
    driver = Driver(sim=sim, registry=registry, latency=LatencyModel(),
                    streams=RandomStreams(seed=seed))
    controller = make_controller(model, sim, registry, driver,
                                 ControllerConfig(execution=execution))
    plans = [FailurePlan(device_id % devices, fail_at,
                         None if downtime is None else fail_at + downtime)
             for device_id, fail_at, downtime in failures]
    FailureInjector(sim, registry, plans=plans).arm()
    if plans:
        FailureDetector(sim, registry, driver, controller).start()
    else:
        driver.on_timeout = controller.on_failure_detected
    attach_streams(controller, workload.streams)
    sim.run(until=until, max_events=2_000_000)
    return RunResult.from_controller(controller)


def coarsen(result: RunResult, step: float) -> None:
    """Snap every timestamp to a ``step`` grid: distinct moments now
    coincide, which exercises every strict/non-strict boundary."""
    def snap(t):
        return None if t is None else round(t / step) * step

    for run in result.runs:
        run.submit_time = snap(run.submit_time)
        run.start_time = snap(run.start_time)
        run.finish_time = snap(run.finish_time)
        for execution in run.executions:
            execution.started_at = snap(execution.started_at)
            execution.finished_at = snap(execution.finished_at)
    result.device_write_logs = {
        device_id: [(snap(t), value, source) for t, value, source in log]
        for device_id, log in result.device_write_logs.items()}
    result.detection_events = [(kind, device_id, snap(when))
                               for kind, device_id, when
                               in result.detection_events]


def shuffle_logs(result: RunResult, seed: int) -> None:
    rng = random.Random(seed)
    for log in result.device_write_logs.values():
        rng.shuffle(log)


failure_plans = st.lists(
    st.tuples(st.integers(0, 4),
              st.sampled_from([1.0, 6.0, 15.0, 40.0]),
              st.sampled_from([None, 3.0, 20.0])),
    max_size=3).map(tuple)


@st.composite
def micro_results(draw) -> RunResult:
    result = run_micro(
        model=draw(st.sampled_from(MODELS)),
        execution=draw(st.sampled_from(EXECUTIONS)),
        seed=draw(st.integers(0, 10_000)),
        routines=draw(st.sampled_from([6, 24, 48])),
        devices=draw(st.sampled_from([5, 12])),
        concurrency=draw(st.sampled_from([1, 4, 8])),
        failures=draw(failure_plans),
        until=draw(st.sampled_from([None, None, 12.0, 45.0])))
    step = draw(st.sampled_from([None, None, 0.5, 5.0]))
    if step is not None:
        coarsen(result, step)
    if draw(st.booleans()):
        shuffle_logs(result, seed=draw(st.integers(0, 99)))
    return result


class TestAgainstQuadraticDefinitions:
    @given(result=micro_results())
    def test_temporary_incongruence(self, result):
        assert temporary_incongruence(result) == \
            ref_temporary_incongruence(result)
        assert temporary_incongruence_events(result) == \
            ref_temporary_incongruence_events(result)

    @given(result=micro_results(), reported_together=st.lists(
        st.tuples(st.sampled_from(["failure", "restart"]),
                  st.integers(0, 5), st.sampled_from([0.0, 10.0, 50.0])),
        max_size=6))
    def test_serial_order_and_detection_placement(self, result,
                                                  reported_together):
        expected = _outcome(ref_reconstruct_serial_order, result)
        assert _outcome(reconstruct_serial_order, result) == expected
        # Detections sharing a device and an instant: their listing
        # order is part of the definition too.
        result.detection_events.extend(reported_together)
        committed = [run.routine_id for run in result.committed]
        # Placement takes any caller-supplied order: the reconstructed
        # one when there is one, else (cyclic WV) submission order, and
        # a partial order that leaves committed routines out.
        for order in (expected if isinstance(expected, list) else committed,
                      committed[::-2]):
            assert place_detection_events(result, order) == \
                ref_place_detection_events(result, order)

    @given(order=st.lists(st.integers(0, 40), max_size=60),
           reference=st.lists(st.integers(0, 50), max_size=60))
    def test_swap_distance_any_sequences(self, order, reference):
        # Disjoint elements, and repeats on either side, included.
        assert swap_distance(order, reference) == \
            ref_swap_distance(order, reference)

    @given(order=st.permutations(range(40)), data=st.data())
    def test_swap_distance_permutations(self, order, data):
        reference = data.draw(st.permutations(range(40)))
        assert swap_distance(order, reference) == \
            ref_swap_distance(order, reference)


class TestInputsCoverTheHardCases:
    """The strategy above is only as good as what it reaches; pin one
    seeded home per case the equivalence has to hold on."""

    def test_failures_give_detections_aborts_and_rollback_writes(self):
        result = run_micro("ev", "serial", seed=3, routines=48,
                           failures=((0, 6.0, 20.0), (1, 15.0, None)))
        assert {kind for kind, _d, _t in result.detection_events} == \
            {"failure", "restart"}
        assert result.aborted
        assert any(isinstance(source, tuple) and source[0] == "rollback"
                   for log in result.device_write_logs.values()
                   for _t, _v, source in log)
        assert ref_temporary_incongruence_events(result) == \
            temporary_incongruence_events(result)

    def test_cut_off_home_has_unfinished_runs(self):
        result = run_micro("wv", "parallel", seed=5, until=12.0)
        assert any(run.start_time is not None and run.finish_time is None
                   for run in result.runs)
        assert temporary_incongruence(result) == \
            ref_temporary_incongruence(result) > 0

    def test_cyclic_wv_raises_the_same_error(self):
        result = run_micro("wv", "serial", seed=1, routines=48,
                           concurrency=8)
        expected = _outcome(ref_reconstruct_serial_order, result)
        assert expected[0] == "raised"
        assert _outcome(reconstruct_serial_order, result) == expected

    def test_ready_routines_leave_by_finish_time_not_by_id(self):
        result = run_micro("ev", "parallel", seed=1, devices=12,
                           concurrency=8)
        order = reconstruct_serial_order(result)
        assert order == ref_reconstruct_serial_order(result)
        assert order != sorted(order)

    def test_coarsened_home_has_coinciding_write_times(self):
        result = run_micro("wv", "serial", seed=2, concurrency=8)
        coarsen(result, 5.0)
        assert any(len({t for t, _v, _s in log}) < len(log)
                   for log in result.device_write_logs.values())


# -- witness first: the verdict is the search's --------------------------------

@st.composite
def serial_checks(draw):
    """``(observed, writes, initial, witness)``: committed writes over a
    few devices, an end state that is some order's (or a stray value),
    and a witness that is a permutation, a wrong order, a subset, a
    repeat or absent."""
    n_routines = draw(st.integers(0, 9))
    devices = st.integers(0, 3)
    values = st.sampled_from(["ON", "OFF", "X"])
    writes = {rid: draw(st.dictionaries(devices, values, min_size=1,
                                        max_size=3))
              for rid in range(n_routines)}
    initial = {device: "INIT" for device in range(4)}
    ids = list(writes)
    observed = end_state_of_order(draw(st.permutations(ids)), writes,
                                  initial)
    if draw(st.booleans()):
        observed[draw(devices)] = draw(values | st.just("INIT"))
    orders = st.permutations(ids)
    witness = draw(st.none() | orders | orders.map(lambda p: p[1:])
                   | orders.map(lambda p: p + p[:1])
                   | st.lists(st.sampled_from(ids), max_size=10)
                   if ids else st.none() | st.just([]))
    return observed, writes, initial, witness


def witness_home(model: str, execution: str, seed: int, commands: int,
                 failed_pct: float):
    home = SafeHome(visibility=model, execution=execution, seed=seed)
    home.load_workload(generate_microbenchmark(MicroParams(
        routines=16, concurrency=4, devices=8,
        commands_per_routine=float(commands), short_duration_s=5.0,
        long_duration_s=120.0, failed_device_pct=failed_pct), seed=seed))
    return home.initial, home.run()


class TestWitnessFirst:
    @given(serial_checks(), st.sampled_from([3, 8]))
    def test_any_witness_leaves_the_verdict_to_the_search(self, check,
                                                          limit):
        observed, writes, initial, witness = check
        assert serial_end_state_exists(
            observed, writes, initial, limit, witness=witness) == \
            ref_serial_end_state_exists(observed, writes, initial, limit)

    def test_a_witness_must_name_every_committed_routine(self):
        writes = {1: {0: "ON"}, 2: {1: "ON"}}
        initial = {0: "OFF", 1: "OFF"}
        observed = {0: "OFF", 1: "ON"}      # R1's write vanished
        assert not ref_serial_end_state_exists(observed, writes, initial)
        for witness in ([2], [2, 2], [2, 3]):
            assert end_state_of_order(witness, writes, initial) == observed
            assert not serial_end_state_exists(observed, writes, initial,
                                               witness=witness)
        for witness in ([1, 2], [2, 1]):    # every routine, no replay
            assert not serial_end_state_exists(observed, writes, initial,
                                               witness=witness)

    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize("model", MODELS)
    def test_micro_homes_judged_as_the_search_judges(self, model,
                                                     execution):
        decided = searched = 0
        for seed in range(4):
            for commands in (1, 2, 4):
                failed_pct = 20.0 if seed == 3 else 0.0
                initial, result = witness_home(model, execution, seed,
                                               commands, failed_pct)

                def judged():
                    # A cyclic WV run with detections has no order to
                    # replay them into: analyze raises, in both.
                    return check_run(result, initial), _outcome(
                        lambda: analyze(result, initial,
                                        exhaustive_limit=6).row())

                shipped = judged()
                with search_only():
                    assert judged() == shipped
                if result.detection_events:
                    continue
                witness = _outcome(reconstruct_serial_order, result)
                writes = effective_writes(result.runs)
                if isinstance(witness, list) and end_state_of_order(
                        witness, writes, initial) == result.end_state:
                    decided += 1
                else:
                    searched += 1
        # Serial WV interleaves conflicting writes, so its witness fails
        # and the search decides; a parallel WV plan issues a routine's
        # writes at once, and its access order replays like the others'.
        if (model, execution) == ("wv", "serial"):
            assert searched, "no WV home left the verdict to the search"
        else:
            assert decided, "the witness never decided"


# -- scale: a quadratic pass makes these tests take minutes --------------------

SCALE = 50_000


def test_swap_distance_reversed_order_at_scale():
    # 1.25e9 inner steps for the double loop; ~1e6 for a Fenwick tree.
    forward = list(range(SCALE))
    assert swap_distance(forward[::-1], forward) == SCALE * (SCALE - 1) // 2
    assert swap_distance(forward, forward) == 0


def test_temporary_incongruence_one_device_at_scale():
    """Routine i writes device 0 at t = i and finishes at i + 2.5, so the
    writes at i + 1 and i + 2 land inside its window."""
    routine = Routine(name="w", commands=[Command(device_id=0, value="ON")])
    runs = [
        RoutineRun(
            routine=routine, routine_id=i, submit_time=float(i),
            status=RoutineStatus.COMMITTED, start_time=float(i),
            finish_time=i + 2.5,
            executions=[CommandExecution(
                routine.commands[0], started_at=float(i),
                finished_at=float(i), applied=True)])
        for i in range(SCALE)]
    log = [(float(i), "ON", i) for i in range(SCALE)]
    log.reverse()       # handed over out of time order
    result = RunResult(
        model_name="wv", runs=runs, end_state={0: "ON"},
        makespan=SCALE + 2.5, device_write_logs={0: log},
        detection_events=[], device_access_order={0: list(range(SCALE))})
    assert temporary_incongruence(result) == (SCALE - 1) / SCALE
    assert temporary_incongruence_events(result) == 2 * SCALE - 3

