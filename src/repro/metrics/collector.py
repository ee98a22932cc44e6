"""Post-run analysis: one :class:`MetricsReport` per simulation."""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.controller import RoutineStatus, RunResult
from repro.errors import SafeHomeError
from repro.metrics import congruence, serialization
from repro.metrics.stats import (mean, normalized_swap_distance, percentile,
                                 summarize)


@dataclass
class MetricsReport:
    """All §7.1 metrics for one run."""

    model_name: str
    routines: int
    committed: int
    aborted: int
    latency: Dict[str, float]            # summary over committed runs
    norm_latency: Dict[str, float]       # latency / ideal routine runtime
    wait_time: Dict[str, float]
    stretch: List[float]                 # per committed routine
    temporary_incongruence: float
    final_congruent: Optional[bool]
    parallelism_mean: float
    parallelism_p50: float
    abort_rate: float
    rollback_overhead_mean: float
    order_mismatch: float
    serial_order: List[int] = field(default_factory=list)
    # Execution-core breakdowns (added with core/execution/): per-plan
    # makespan (first command start → finish, committed runs) and
    # lock-wait seconds (ready-but-blocked command time plus lock-table
    # admission waits).  Not part of row() so legacy tables/reports stay
    # byte-identical.
    plan_makespan: Dict[str, float] = field(default_factory=dict)
    lock_wait: Dict[str, float] = field(default_factory=dict)
    # row() is recomputed by every table/JSON emitter that touches the
    # report (fleet workers, CLI, experiment drivers) — memoize it.
    _row_cache: Optional[Dict[str, Any]] = field(
        default=None, init=False, repr=False, compare=False)

    def row(self) -> Dict[str, Any]:
        """Flat dict for table printing (cached; copy per call)."""
        if self._row_cache is None:
            self._row_cache = self._build_row()
        return dict(self._row_cache)

    def _build_row(self) -> Dict[str, Any]:
        return {
            "model": self.model_name,
            "routines": self.routines,
            "committed": self.committed,
            "aborted": self.aborted,
            "lat_p50": round(self.latency["p50"], 3),
            "lat_p95": round(self.latency["p95"], 3),
            "wait_p50": round(self.wait_time["p50"], 3),
            "temp_incong": round(self.temporary_incongruence, 4),
            "final_ok": self.final_congruent,
            "parallelism": round(self.parallelism_mean, 3),
            "abort_rate": round(self.abort_rate, 4),
            "rollback": round(self.rollback_overhead_mean, 4),
            "order_mismatch": round(self.order_mismatch, 4),
        }


def parallelism_samples(result: RunResult) -> List[int]:
    """Concurrent running routines, sampled at every start/end point.

    The count at ``t`` is ``#{start <= t} - #{finish <= t}`` (intervals
    are half-open), which two bisects answer per point instead of a
    scan over every interval.
    """
    from bisect import bisect_right

    intervals = [(run.start_time, run.finish_time) for run in result.runs
                 if run.start_time is not None
                 and run.finish_time is not None]
    if not intervals:
        return []
    points = sorted({t for interval in intervals for t in interval})
    starts = sorted(start for start, _finish in intervals)
    finishes = sorted(finish for _start, finish in intervals)
    return [bisect_right(starts, t) - bisect_right(finishes, t)
            for t in points]


def stretch_factors(result: RunResult) -> List[float]:
    """actual-run-time / ideal-run-time per committed routine (§7.5.1).

    The ideal is the sum of command durations; actual is first command
    start → finish (lock waits during execution stretch the routine).
    """
    factors = []
    for run in result.runs:
        if run.status is not RoutineStatus.COMMITTED:
            continue
        ideal = run.routine.total_duration
        if ideal <= 0 or run.start_time is None:
            continue
        factors.append((run.finish_time - run.start_time) / ideal)
    return factors


def analyze(result: RunResult, initial: Dict[int, Any],
            check_final: bool = True,
            exhaustive_limit: int = 8) -> MetricsReport:
    """Compute every §7.1 metric for a completed run."""
    # result.committed/.aborted rebuild their lists per access — hoist
    # them once and derive the abort metrics from the hoisted lists.
    committed = result.committed
    aborted = result.aborted
    latencies = [run.latency for run in committed]
    norm_latencies = [
        run.latency / run.routine.total_duration
        for run in committed
        if run.routine.total_duration > 0]
    waits = [run.wait_time for run in result.runs
             if run.wait_time is not None]
    samples = parallelism_samples(result)
    final: Optional[bool] = None
    cycle: Optional[SafeHomeError] = None
    try:
        serial_order = serialization.reconstruct_serial_order(result)
    except SafeHomeError as error:
        serial_order, cycle = [], error  # WV may be cyclic — expected
    if check_final:
        if result.detection_events:
            if cycle is not None:
                raise cycle
            final = serialization.validate_serial_order(
                result, initial, serial_order)
        else:
            # The reconstructed order is the witness the search tries
            # first; it decides only when it replays to the end state.
            final = congruence.final_state_serializable(
                result, initial, exhaustive_limit=exhaustive_limit,
                witness=None if cycle else serial_order)

    submission_order = [run.routine_id for run in
                        sorted(result.runs,
                               key=lambda r: (r.submit_time, r.routine_id))
                        if run.status is RoutineStatus.COMMITTED]
    mismatch = normalized_swap_distance(serial_order, submission_order) \
        if serial_order else 0.0

    overheads = [run.rolled_back_commands / len(run.commands)
                 for run in aborted if run.commands]
    return MetricsReport(
        model_name=result.model_name,
        routines=len(result.runs),
        committed=len(committed),
        aborted=len(aborted),
        latency=summarize(latencies),
        norm_latency=summarize(norm_latencies),
        wait_time=summarize(waits),
        stretch=stretch_factors(result),
        temporary_incongruence=congruence.temporary_incongruence(result),
        final_congruent=final,
        parallelism_mean=mean(samples),
        parallelism_p50=percentile(samples, 50),
        abort_rate=len(aborted) / len(result.runs) if result.runs else 0.0,
        rollback_overhead_mean=mean(overheads),
        order_mismatch=mismatch,
        serial_order=serial_order,
        plan_makespan=summarize([
            run.finish_time - run.start_time for run in committed
            if run.start_time is not None and run.finish_time is not None]),
        lock_wait=summarize([run.lock_wait_s for run in result.runs]),
    )
