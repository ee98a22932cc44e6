"""Partitioned Strict Visibility (PSV) (§2.1, §3).

Non-conflicting routines run concurrently; conflicting routines are
serialized in arrival order.  Admission is expressed against the shared
lock table: a routine atomically requests an exclusive lock on every
device it touches at arrival, starting when all are granted.  FIFO wait
queues reproduce the old blocked-set scan exactly — a waiting routine's
devices block later conflicting arrivals, and grants cascade in arrival
order when a routine finishes.  Because each arrival requests its whole
footprint atomically, wait-for edges always point at earlier arrivals
and admission is deadlock-free by construction.

Failure serialization modifies Eventual Visibility's rules with
condition 3* (§3): a failure after the routine's last touch of a device
is serializable *only if the device has recovered by the routine's
finish point* — otherwise the routine aborts at its finish point (which
is why PSV's rollback overhead is high, §7.4).
"""

from typing import Dict, List, Set

from repro.core.controller import RoutineRun, RoutineStatus
from repro.core.execution.engine import PlanExecutionMixin


class PartitionedStrictVisibilityController(PlanExecutionMixin):
    """Conflict-serialized execution with finish-point failure checks."""

    model_name = "psv"
    # Hub-crash recovery (docs/durability.md): each partition is a
    # strict serial order; a routine executing across the outage cannot
    # keep that promise, so recovery aborts it (waiting admissions are
    # durable in the lock table and proceed untouched).
    hub_recovery_policy = "abort"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._running: List[RoutineRun] = []
        # Condition 3*: running routine id -> devices failed after touch.
        self._failed_after_touch: Dict[int, Set[int]] = {}

    def snapshot_state(self):
        state = super().snapshot_state()
        state["running"] = tuple(run.routine_id for run in self._running)
        failed = self._failed_after_touch
        state["failed_after_last_touch"] = tuple(
            (run.routine_id, tuple(sorted(failed[run.routine_id])))
            for run in self._running if run.routine_id in failed)
        return state

    def _arrive(self, run: RoutineRun) -> None:
        run.status = RoutineStatus.WAITING
        if self._admit_with_locks(run, run.routine.device_ids):
            self._start_admitted(run)

    def _start_admitted(self, run: RoutineRun) -> None:
        self._running.append(run)
        self._begin(run)
        self._run_next(run)

    def _policy_after_finish(self, run: RoutineRun) -> None:
        if run in self._running:
            self._running.remove(run)
            self._failed_after_touch.pop(run.routine_id, None)
        self._release_admission_locks(run)

    # -- failure serialization (EV rules with condition 3*) ------------------

    def _policy_on_failure(self, device_id: int) -> None:
        for run in list(self._running):
            if run.done or device_id not in run.routine.device_set:
                continue
            if run.in_touch_phase(device_id):
                self.request_abort(
                    run, f"failure of device {device_id} mid-touch")
            elif run.done_on(device_id):
                self._failed_after_touch.setdefault(
                    run.routine_id, set()).add(device_id)
            # Not yet touched: the believed-failed check at touch time
            # aborts (must) or skips (best-effort) if it has not
            # recovered — condition 2 allows fail+restart before first
            # touch.

    def _finish_point(self, run: RoutineRun) -> None:
        failed = self._failed_after_touch.get(run.routine_id, ())
        still_down = {d for d in failed if d in self.believed_failed}
        if still_down:
            self.abort(run, f"devices {sorted(still_down)} failed after "
                            "last touch and not recovered at finish point")
            return
        self.commit(run)
