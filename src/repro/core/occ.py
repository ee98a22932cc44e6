"""Optimistic concurrency control — the paper's flagged future work.

§4.1 (footnote 3): "For the limited scenarios where routines are known
to be conflict-free, optimistic approaches may be worth exploring in
future work."  This controller explores exactly that: routines execute
immediately with no locks (like WV), and validate at their finish point
against the routines that committed during their lifetime
(first-committer-wins backward validation).  A conflicted routine is
rolled back and retried a bounded number of times.

The guarantee matches EV's: committed routines are end-state
serializable (in commit order).  A write may land over another routine's
uncommitted one, so an abort restores the newest surviving write (the
write chains of ``core/undo.py``), never a before-image.  The cost
profile inverts EV's — zero lock latency when conflicts are rare, but
aborts+undo (which §4.1 calls "disruptive to the human experience")
when they are not.  The `bench_occ` benchmark quantifies that trade-off
and confirms the paper's reasoning for preferring pessimistic locking.
"""

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List

from repro.core.controller import RoutineRun
from repro.core.digest import ChainDigest
from repro.core.execution.engine import PlanExecutionMixin


@dataclass(frozen=True)
class CommitRecord:
    """What a committed routine wrote, and when it committed."""

    routine_id: int
    commit_time: float
    write_set: frozenset


class OptimisticController(PlanExecutionMixin):
    """Lock-free execution with finish-point validation."""

    model_name = "occ"
    max_retries = 3
    # Hub-crash recovery (docs/durability.md): optimistic execution is
    # naturally restartable — a recovered routine re-validates its
    # read/write sets at its finish point, so it resumes and any
    # outage-induced conflict is caught by first-committer-wins.
    hub_recovery_policy = "resume"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.commit_log: List[CommitRecord] = []
        self.retries_used: Dict[int, int] = {}
        self.validation_aborts = 0

    def _reset_digests(self) -> None:
        super()._reset_digests()
        self._commit_chain = ChainDigest()
        self._retry_chain = ChainDigest()

    def snapshot_state(self):
        state = super().snapshot_state()
        # Both history parts are append-only (a routine's retry count is
        # set once, when its retry is submitted): chain the new items.
        chain = self._commit_chain
        state["commit_log"] = chain.extend(
            (record.routine_id, record.commit_time,
             tuple(sorted(record.write_set)))
            for record in islice(self.commit_log, chain.count, None))
        chain = self._retry_chain
        state["retries_used"] = chain.extend(
            islice(self.retries_used.items(), chain.count, None))
        state["write_bases"] = tuple(sorted(self.writes.bases().items()))
        state["validation_aborts"] = self.validation_aborts
        return state

    # -- execution: run immediately, like WV --------------------------------------

    def _arrive(self, run: RoutineRun) -> None:
        self._begin(run)
        self._run_next(run)

    # -- validation (first committer wins) ------------------------------------------

    def _finish_point(self, run: RoutineRun) -> None:
        conflict = self._conflicting_commit(run)
        if conflict is None:
            self._commit_validated(run)
            return
        self.validation_aborts += 1
        self.abort(run, f"validation conflict with routine "
                        f"{conflict.routine_id}")
        self._maybe_retry(run)

    def _conflicting_commit(self, run: RoutineRun):
        """A commit that overlapped this run's lifetime and footprint."""
        devices = run.routine.device_ids
        start = run.start_time if run.start_time is not None else 0.0
        for record in reversed(self.commit_log):
            if record.commit_time <= start:
                break
            if not record.write_set.isdisjoint(devices):
                return record
        return None

    def _commit_validated(self, run: RoutineRun) -> None:
        self.commit_log.append(CommitRecord(
            routine_id=run.routine_id,
            commit_time=self.sim.now,
            write_set=frozenset(run.effective_final_writes())))
        self.commit(run)

    # -- retry ---------------------------------------------------------------------------

    def _maybe_retry(self, run: RoutineRun) -> None:
        used = self.retries_used.get(run.routine_id, 0)
        if used >= self.max_retries:
            return
        # The retry shares the original's commands and compiled plan.
        new_run = self.submit(run.routine.rerun("occ-retry"),
                              when=self.sim.now)
        self.retries_used[new_run.routine_id] = used + 1
