"""Optimistic concurrency control — the paper's flagged future work.

§4.1 (footnote 3): "For the limited scenarios where routines are known
to be conflict-free, optimistic approaches may be worth exploring in
future work."  This controller explores exactly that: routines execute
immediately with no locks (like WV), and validate at their finish point
against the routines that committed during their lifetime
(first-committer-wins backward validation).  A conflicted routine is
rolled back and retried a bounded number of times.

The guarantee matches EV's: committed routines are end-state
serializable (in commit order).  The cost profile inverts EV's — zero
lock latency when conflicts are rare, but aborts+undo (which §4.1 calls
"disruptive to the human experience") when they are not.  The
`bench_occ` benchmark quantifies that trade-off and confirms the
paper's reasoning for preferring pessimistic locking.
"""

from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, List, Set

from repro.core.command import CommandExecution
from repro.core.controller import (Canonical, RoutineRun, RoutineStatus,
                                   canonical_object, encode_fragment)
from repro.core.execution.engine import PlanExecutionMixin
from repro.core.routine import Routine


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
        self.committed_states: Dict[int, Any] = {}
        self.retries_used: Dict[int, int] = {}
        self.validation_aborts = 0
        # Encoded snapshot fragments of the two append-only structures
        # above (filled only by snapshot_state): one text per commit
        # record, one (key, text) member per retried routine.
        self._commit_fragments: List[str] = []
        self._retry_fragments: List[tuple] = []

    def snapshot_state(self):
        state = super().snapshot_state()
        commits = self._commit_fragments
        for record in self.commit_log[len(commits):]:
            commits.append(encode_fragment({
                "routine_id": record.routine_id,
                "commit_time": record.commit_time,
                "write_set": sorted(record.write_set),
            }))
        state["commit_log"] = Canonical("[%s]" % ", ".join(commits))
        state["committed_states"] = dict(self.committed_states)
        # Insert-only, and a routine's count is set once, when its retry
        # is submitted: the entries past the cache are the new ones.
        retries = self._retry_fragments
        for routine_id, used in islice(self.retries_used.items(),
                                       len(retries), None):
            retries.append((str(routine_id), encode_fragment(used)))
        state["retries_used"] = canonical_object(retries)
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
        footprint: Set[int] = set(run.routine.device_set)
        start = run.start_time if run.start_time is not None else 0.0
        for record in reversed(self.commit_log):
            if record.commit_time <= start:
                break
            if record.write_set & footprint:
                return record
        return None

    def _commit_validated(self, run: RoutineRun) -> None:
        writes = run.effective_final_writes()
        self.commit_log.append(CommitRecord(
            routine_id=run.routine_id,
            commit_time=self.sim.now,
            write_set=frozenset(writes)))
        self.committed_states.update(writes)
        self.commit(run)

    # -- rollback: restore last *committed* values ------------------------------------

    def _rollback_targets(self, run: RoutineRun) -> Dict[int, Any]:
        """Unlike the base (prior-state) policy, OCC restores the last
        committed value — a concurrent routine's uncommitted write may
        be physically newer than ours and must not be resurrected."""
        targets: Dict[int, Any] = {}
        for execution in run.executions:
            command = execution.command
            if not (execution.applied and command.is_write):
                continue
            device_id = command.device_id
            device = self.registry.get(device_id)
            if device.last_writer() != run.routine_id:
                continue  # someone newer owns the state now
            # Never committed: the initial state counts as committed.
            committed = self.committed_states.get(device_id,
                                                  device.initial_state)
            targets[device_id] = self.undo_registry.resolve(
                command, committed)
        return targets

    # -- retry ---------------------------------------------------------------------------

    def _maybe_retry(self, run: RoutineRun) -> None:
        used = self.retries_used.get(run.routine_id, 0)
        if used >= self.max_retries:
            return
        retry = Routine(name=run.routine.name,
                        commands=list(run.routine.commands),
                        user=run.routine.user,
                        trigger="occ-retry")
        new_run = self.submit(retry, when=self.sim.now)
        self.retries_used[new_run.routine_id] = used + 1
