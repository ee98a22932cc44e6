"""Serialization-order reconstruction and validation (§3, §7.6).

SafeHome's guarantee is the existence of an equivalent serial order of
committed routines *and* failure/restart events.  We reconstruct one
from the per-device access sequences the controller records, then
validate that replaying it serially reproduces the observed end state.
The order-mismatch metric (Fig 16c/17) compares this order with the
submission order by normalized swap distance.
"""

import heapq
import itertools
from bisect import bisect_right
from operator import itemgetter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.controller import RoutineStatus, RunResult
from repro.errors import SafeHomeError
from repro.metrics.congruence import effective_writes


def reconstruct_serial_order(result: RunResult) -> List[int]:
    """Topological order of committed routines from device precedences.

    Edges come from the order in which routines completed their last
    access on each device; ties (unrelated routines) break by commit
    time, then routine id, which keeps the output deterministic.
    """
    committed = [run.routine_id for run in result.runs
                 if run.status is RoutineStatus.COMMITTED]
    committed_set = set(committed)
    successors: Dict[int, Set[int]] = {rid: set() for rid in committed}
    indegree: Dict[int, int] = {rid: 0 for rid in committed}
    for sequence in result.device_access_order.values():
        chain = [rid for rid in sequence if rid in committed_set]
        for before, after in zip(chain, chain[1:]):
            if after not in successors[before]:
                successors[before].add(after)
                indegree[after] += 1

    finish_time = {run.routine_id: run.finish_time for run in result.runs}
    order: List[int] = []
    ready = [(finish_time[rid], rid)
             for rid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    while ready:
        _finish, rid = heapq.heappop(ready)
        order.append(rid)
        for succ in successors[rid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, (finish_time[succ], succ))
    if len(order) != len(committed):
        raise SafeHomeError(
            "cycle in device access precedences: execution was not "
            "serializable")
    return order


def place_detection_events(result: RunResult,
                           order: List[int]) -> List[Tuple]:
    """Interleave failure/restart events into the serial order.

    Each event is placed after every committed routine whose last access
    of the device preceded the detection, which matches EV's rule that a
    failure after a routine's last touch serializes after the routine.
    Returns a list of ("routine", id) / ("failure", dev, t) /
    ("restart", dev, t) tuples.
    """
    positions = {rid: i for i, rid in enumerate(order)}
    last_touch: Dict[int, Dict[int, float]] = {}
    for run in result.runs:
        if run.status is not RoutineStatus.COMMITTED \
                or run.routine_id not in positions:
            continue
        for execution in run.executions:
            if execution.finished_at is not None:
                touched = last_touch.setdefault(
                    execution.command.device_id, {})
                touched[run.routine_id] = max(
                    touched.get(run.routine_id, 0.0), execution.finished_at)
    # Per device: last-touch times, sorted, beside the running maximum of
    # the touchers' serial positions — one bisect finds the latest
    # routine that touched the device by ``when``.
    latest: Dict[int, Tuple[Tuple, List[int]]] = {}
    for device_id, touched in last_touch.items():
        times, spots = zip(*sorted(
            (at, positions[rid]) for rid, at in touched.items()))
        latest[device_id] = (times, list(itertools.accumulate(spots, max)))
    # Events sharing a position are listed in detection order; those
    # detected at the same instant, last reported first.
    placed: Dict[int, List[Tuple]] = {}
    for kind, device_id, when in reversed(result.detection_events):
        times, last_spot = latest.get(device_id, ((), ()))
        touched = bisect_right(times, when)
        placed.setdefault(last_spot[touched - 1] if touched else -1,
                          []).append((kind, device_id, when))
    timeline: List[Tuple] = sorted(placed.get(-1, ()), key=itemgetter(2))
    for spot, rid in enumerate(order):
        timeline.append(("routine", rid))
        timeline.extend(sorted(placed.get(spot, ()), key=itemgetter(2)))
    return timeline


def failed_at_end(result: RunResult) -> Set[int]:
    """Devices believed failed at the end of the run (detections in
    order: a device that failed, restarted and failed again is down)."""
    failed: Set[int] = set()
    for kind, device_id, _t in result.detection_events:
        if kind == "failure":
            failed.add(device_id)
        else:
            failed.discard(device_id)
    return failed


def validate_serial_order(result: RunResult,
                          initial: Dict[int, Any],
                          order: Optional[List[int]] = None) -> bool:
    """Replay ``order`` serially; True iff it reproduces the end state.

    Devices that are failed at the end of the run are exempted when the
    hub holds a pending reconciliation for them (their physical state
    will converge on restart).
    """
    if order is None:
        order = reconstruct_serial_order(result)
    writes = effective_writes(result.runs)
    state = dict(initial)
    for rid in order:
        state.update(writes.get(rid, {}))
    failed_now = failed_at_end(result)
    for device_id, expected in state.items():
        if device_id in failed_now:
            continue  # frozen by failure; reconciliation applies later
        if result.end_state.get(device_id) != expected:
            return False
    return True
