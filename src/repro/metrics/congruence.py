"""Congruence checkers (§7.1).

*Temporary incongruence*: before routine R completes, another routine
changes the state of a device R modified.

*Final incongruence*: the home's end state is not the end state of
**any** serial order of the committed routines.  We provide two
implementations — exhaustive permutation search (small n, e.g. the 9!
check behind Fig 12b) and a backtracking "designated last writer"
search that scales to large routine counts — and cross-check them in
the test suite.
"""

import itertools
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.core.controller import RoutineRun, RoutineStatus, RunResult


def _writer_id(source: Any) -> Optional[int]:
    """Routine id behind a device write-log source tag."""
    if isinstance(source, int):
        return source
    if isinstance(source, tuple) and len(source) == 2 and \
            source[0] in ("rollback",):
        return source[1]
    return None  # reconcile writes are hub actions, not routine-visible


def _foreign_writes(result: RunResult) -> Iterator[Tuple[int, int]]:
    """(run index, n) per write a started routine applied, where ``n``
    writes by *other* routines hit the same device strictly between that
    write and the routine's finish: n temporary-incongruence events.

    O(n log n).  Per device the routine-attributed write times, sorted
    (logs may arrive out of time order), and per (device, routine) that
    routine's own: the foreign writes inside a window are all the writes
    inside it minus the routine's own, each count two bisects.
    """
    writes: Dict[int, Tuple[List, Dict[int, List]]] = {}
    for device_id, log in result.device_write_logs.items():
        times, own_times = writes[device_id] = [], {}
        for t, _value, source in sorted(log, key=itemgetter(0)):
            writer = _writer_id(source)
            if writer is not None:
                times.append(t)
                own_times.setdefault(writer, []).append(t)

    def inside(times: Sequence, low: Any, high: Any) -> int:
        return max(0, bisect_left(times, high) - bisect_right(times, low))

    for index, run in enumerate(result.runs):
        if run.start_time is None:
            continue
        finish = run.finish_time if run.finish_time is not None \
            else float("inf")
        for command, started_at in run.applied_writes():
            if command.device_id in writes:
                times, own_times = writes[command.device_id]
                n = inside(times, started_at, finish)
                if n:
                    n -= inside(own_times.get(run.routine_id, ()),
                                started_at, finish)
                yield index, n


def temporary_incongruence(result: RunResult) -> float:
    """Fraction of routines suffering ≥1 temporary incongruence event.

    A routine R suffers an event when, before R finishes, another
    routine changes a device R had (already) modified.
    """
    if not result.runs:
        return 0.0
    suffered = {index for index, n in _foreign_writes(result) if n}
    return len(suffered) / len(result.runs)


def temporary_incongruence_events(result: RunResult) -> int:
    """Total count of temporary-incongruence events across the run.

    One event per (routine write, conflicting foreign write) pair:
    routine R applied a write to a device and another routine overwrote
    it before R finished.  Where :func:`temporary_incongruence` reports
    the *fraction of routines* affected (§7.1's metric), this counts
    every individual violation — the objective the adversarial hunt
    (``repro hunt``) maximizes, since a scenario interleaving ten
    conflicting writes under one routine is "worse" than one that
    interleaves a single write even though both score the same
    fraction.
    """
    return sum(n for _index, n in _foreign_writes(result))


def effective_writes(runs: Iterable[RoutineRun]) -> Dict[int, Dict[int, Any]]:
    """routine_id → {device → last applied value} for committed runs."""
    out: Dict[int, Dict[int, Any]] = {}
    for run in runs:
        if run.status is RoutineStatus.COMMITTED:
            out[run.routine_id] = run.effective_final_writes()
    return out


def end_state_of_order(order: Sequence[int],
                       writes: Dict[int, Dict[int, Any]],
                       initial: Dict[int, Any]) -> Dict[int, Any]:
    """End state if the routines ran serially in ``order``."""
    state = dict(initial)
    for routine_id in order:
        state.update(writes.get(routine_id, {}))
    return state


def serial_end_state_exists(observed: Dict[int, Any],
                            writes: Dict[int, Dict[int, Any]],
                            initial: Dict[int, Any],
                            exhaustive_limit: int = 8,
                            witness: Optional[Sequence[int]] = None
                            ) -> bool:
    """Does any serial order of the committed routines yield ``observed``?

    A ``witness`` order is replayed first: when it names every committed
    routine and yields ``observed``, such an order exists (keep each
    routine's last occurrence).  Otherwise brute force decides for
    ≤ ``exhaustive_limit`` routines, the designated-last-writer
    backtracking search beyond.
    """
    if witness is not None and writes.keys() == set(witness) \
            and end_state_of_order(witness, writes, initial) == observed:
        return True
    ids = list(writes)
    if len(ids) <= exhaustive_limit:
        return _exists_exhaustive(observed, writes, initial, ids)
    return _exists_last_writer(observed, writes, initial, ids)


def _exists_exhaustive(observed, writes, initial, ids) -> bool:
    for order in itertools.permutations(ids):
        if end_state_of_order(order, writes, initial) == observed:
            return True
    return False


def _exists_last_writer(observed, writes, initial, ids) -> bool:
    """Constraint search over "who wrote each device last".

    A serial order matching ``observed`` exists iff we can pick, for
    each device written by ≥1 routine, a *designated last writer* whose
    value equals the observed one (or no writer, when the initial value
    matches and we can order... no: every writer writes, so the last
    writer's value must match), such that the induced precedence
    constraints (all other writers of the device precede the designated
    one) admit a topological order.
    """
    device_writers: Dict[int, List[int]] = {}
    for routine_id in ids:
        for device_id in writes[routine_id]:
            device_writers.setdefault(device_id, []).append(routine_id)

    # Devices no committed routine wrote must still hold their initial
    # value (serial execution cannot change them).
    for device_id in set(initial) | set(observed):
        if device_id not in device_writers:
            if observed.get(device_id) != initial.get(device_id):
                return False

    for device_id, writers in device_writers.items():
        expected = observed.get(device_id)
        if not any(writes[w][device_id] == expected for w in writers):
            return False  # no candidate last writer at all

    devices = sorted(device_writers, key=lambda d: len(device_writers[d]))

    def consistent(choices: Dict[int, int]) -> bool:
        # Edges: other writer -> designated last writer, per device.
        edges: Dict[int, Set[int]] = {}
        for device_id, last in choices.items():
            for writer in device_writers[device_id]:
                if writer != last:
                    edges.setdefault(writer, set()).add(last)
        return _acyclic(edges, ids)

    def backtrack(index: int, choices: Dict[int, int]) -> bool:
        if index == len(devices):
            return consistent(choices)
        device_id = devices[index]
        expected = observed.get(device_id)
        for writer in device_writers[device_id]:
            if writes[writer][device_id] != expected:
                continue
            choices[device_id] = writer
            if consistent(choices) and backtrack(index + 1, choices):
                return True
            del choices[device_id]
        return False

    return backtrack(0, {})


def _acyclic(edges: Dict[int, Set[int]], nodes: List[int]) -> bool:
    state: Dict[int, int] = {}  # 0 visiting, 1 done

    def visit(node: int) -> bool:
        if state.get(node) == 1:
            return True
        if state.get(node) == 0:
            return False
        state[node] = 0
        for succ in edges.get(node, ()):
            if not visit(succ):
                return False
        state[node] = 1
        return True

    return all(visit(node) for node in nodes)


def final_state_serializable(result: RunResult,
                             initial: Dict[int, Any],
                             exhaustive_limit: int = 8,
                             witness: Optional[Sequence[int]] = None
                             ) -> bool:
    """Is the run's end state serially equivalent (§7.1's Final
    Incongruence check, cf. Fig 12b)?  ``witness`` as in
    :func:`serial_end_state_exists`.

    Only valid for failure-free runs: with failures, compare against
    :func:`repro.metrics.serialization.validate_serial_order` instead.
    """
    writes = effective_writes(result.runs)
    return serial_end_state_exists(result.end_state, writes, initial,
                                   exhaustive_limit=exhaustive_limit,
                                   witness=witness)
