"""Eventual Visibility (EV): SafeHome's headline model (§4).

EV lets conflicting routines run concurrently while guaranteeing that
the *end state* equals some serial execution of the committed routines
(plus failure/restart events).  The machinery:

* virtual locks with **early lock acquisition** — a routine's entire
  footprint is placed in the lineage table atomically at scheduling
  time, so it never aborts for lock contention (§4.1);
* **pre-/post-leasing** of locks, expressed as lineage placements;
* pluggable **schedulers** (FCFS / JiT / Timeline, §5);
* **commit compaction** ("last writer wins", Fig 7);
* lineage-driven **rollback** on abort (§4.3);
* EV failure serialization (§3): a failure detected after a routine's
  last touch of a device is serialized after the routine; a failure
  before its first touch is tolerated if the device restarts in time;
  anything else aborts the routine.
"""

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.command import Command, CommandExecution
from repro.core.controller import RoutineRun, RoutineStatus
from repro.core.execution.engine import PlanExecutionMixin
from repro.core.lineage import UNSET, LineageTable, LockAccess, LockStatus
from repro.core.routine import LockRequest
from repro.errors import SchedulingError
from repro.sim.events import Event


class Placement:
    """One planned lock-access: where and when a routine uses a device."""

    __slots__ = ("request", "index", "planned_start", "duration")

    def __init__(self, request: LockRequest, index: int,
                 planned_start: float, duration: float) -> None:
        self.request = request
        self.index = index
        self.planned_start = planned_start
        self.duration = duration

    def __repr__(self) -> str:
        return (f"Placement(dev={self.request.device_id}, idx={self.index}, "
                f"t={self.planned_start:g}+{self.duration:g})")


class EventualVisibilityController(PlanExecutionMixin):
    """Lineage-table based controller implementing EV."""

    model_name = "ev"
    # Hub-crash recovery (docs/durability.md): the lineage table is
    # exactly the structure the paper designed to survive restarts — it
    # pins every in-flight routine's serialization position, so recovery
    # re-issues remaining commands instead of aborting.
    hub_recovery_policy = "resume"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.table = LineageTable(
            committed_lookup=lambda d: self.registry.get(d).state)
        self._revocations: Dict[Tuple[int, int], Event] = {}
        # Waiting index: device id -> {routine_id: run} of runs with a
        # command lock-blocked on that device.  A release pumps exactly
        # these candidates (in submission order) instead of scanning
        # every run in the home; see _pump_released.
        self._waiters: Dict[int, Dict[int, RoutineRun]] = {}
        self.scheduler = self._make_scheduler()
        self.scheduler_stats: Dict[str, float] = {
            "placements": 0, "pre_leases": 0, "post_leases": 0}

    def _make_scheduler(self):
        from repro.core.schedulers import make_scheduler
        return make_scheduler(self.config.scheduler, self)

    # -- estimates -------------------------------------------------------------

    def estimate_duration(self, run: RoutineRun,
                          request: LockRequest) -> float:
        """Estimated lock-access duration (§4.3).

        Known command durations plus one τ-timeout per command (covering
        network latency), with optional injected estimation error for
        revocation experiments.
        """
        tau = self.config.tau_timeout_s
        commands = request.last_index - request.first_index + 1
        base = request.duration + tau * commands
        estimate = max(base, tau)
        error = self.config.estimate_error
        if error:
            rng = self.driver.streams.stream("estimates")
            estimate *= max(0.05, 1.0 + rng.uniform(-error, error))
        return estimate

    def estimated_runtime(self, run: RoutineRun) -> float:
        return sum(self.estimate_duration(run, request)
                   for request in run.routine.lock_requests())

    def routine_end_estimator(self) -> Callable[[LockAccess], float]:
        """Projected end of an ACQUIRED access when post-leasing is off:
        the owner holds every lock until its routine finishes."""
        if self.config.post_lease:
            return lambda access: 0.0

        def estimate(access: LockAccess) -> float:
            run = self.run_by_id(access.routine_id)
            start = run.start_time if run.start_time is not None \
                else self.sim.now
            return start + self.estimated_runtime(run)

        return estimate

    # -- precedence closure (Invariant 4 / preSet-postSet) ------------------------

    def before_after_for_gap(self, device_id: int, index: int
                             ) -> Tuple[int, int]:
        """preSet/postSet masks of placing an access at ``index``.

        The paper's preSet/postSet are "the routines positioned before
        and after R in the serialization order" — transitively, which is
        what makes the emptiness test (``pre & post == 0``) equivalent
        to acyclicity.  The gap's two neighbours answer for the whole
        device: the left one (the device's tail, when the gap sits right
        behind it) already follows every earlier owner and everything
        that left the lineage; the right one precedes every later owner.
        Masks are over ``table.closure.bit``.
        """
        table = self.table
        left, right = table.neighbours(table.lineage(device_id), index)
        closure = table.closure
        pre = 0 if left is None else closure.pre[left] | closure.bit[left]
        post = 0 if right is None else \
            closure.post[right] | closure.bit[right]
        return pre, post

    # -- placement ---------------------------------------------------------------

    def place_run(self, run: RoutineRun,
                  placements: List[Placement]) -> None:
        """Atomically install a routine's lock-accesses (early lock
        acquisition: all or nothing, §4.1)."""
        for placement in placements:
            request = placement.request
            lineage = self.table.lineage(request.device_id)
            access = LockAccess(
                routine_id=run.routine_id,
                device_id=request.device_id,
                planned_start=placement.planned_start,
                duration=placement.duration,
                writes=request.writes,
                reads=request.reads,
                final_value=request.final_value,
                pre_leased=placement.index < len(lineage.entries),
            )
            if access.pre_leased:
                self.scheduler_stats["pre_leases"] += 1
            self.table.insert(placement.index, access)
            if self.journal is not None:
                self._journal("lineage-placed",
                              routine_id=run.routine_id,
                              device_id=request.device_id,
                              index=placement.index,
                              pre_leased=access.pre_leased)
            if placement.index + 1 < len(lineage.entries):
                # Only pre-leased insertions have successors to replan;
                # the common tail append skips the scan.
                self._replan_successors(lineage, access,
                                        index=placement.index)
        self.scheduler_stats["placements"] += 1
        if self.config.paranoid:
            self.table.verify_all()
        self._pump(run)

    @staticmethod
    def _replan_successors(lineage, access: LockAccess,
                           index: Optional[int] = None) -> None:
        """Keep Invariant 1 truthful after an insertion: successors that
        would now overlap in planned time are pushed right (this is the
        "stretch" an insertion imposes, Fig 9c)."""
        if index is None:
            index = lineage.index_of(access.routine_id)
        cursor = access.planned_end
        for later in lineage.entries[index + 1:]:
            if later.status is LockStatus.SCHEDULED and \
                    later.planned_start < cursor:
                later.planned_start = cursor
            cursor = max(cursor, later.planned_start + later.duration)

    # -- execution ------------------------------------------------------------------

    def _arrive(self, run: RoutineRun) -> None:
        run.status = RoutineStatus.WAITING
        self.scheduler.on_arrive(run)

    def _pump(self, run: RoutineRun) -> None:
        """Advance a routine if its next command's lock is available.

        Called for every waiter of a released device, so the guards
        use direct attribute loads (status/inflight_count) rather than
        the equivalent convenience properties.
        """
        if self._parallel_flag:
            # The plan dispatcher issues every ready command whose
            # lineage entry is acquirable (see _claim_device).
            self._dispatch(run)
            return
        if run.status.finished or run.inflight_count > 0:
            return
        commands = run.routine.commands
        if run.next_index >= len(commands):
            self._finish_point(run)
            return
        command = commands[run.next_index]
        lineage = self.table.lineage(command.device_id)
        entry = lineage.entry_for(run.routine_id)
        if entry is None:
            return  # not placed yet; place_run pumps after placement
        if entry.status is LockStatus.SCHEDULED:
            if not lineage.try_acquire(entry, self.sim.now,
                                       finished=self.is_finished,
                                       wants_read=entry.reads):
                self._wait_for(run, command.device_id)
                return
            if self.journal is not None:
                self._journal("lineage-acquired",
                              routine_id=run.routine_id,
                              device_id=command.device_id)
            if entry.pre_leased:
                self._arm_revocation(run, entry)
        self._begin(run)
        run.next_index += 1
        self._issue_command(run, command, self._after_command)

    def _wait_for(self, run: RoutineRun, device_id: int) -> None:
        """A command of ``run`` is lock-blocked on ``device_id``: the
        next release of the device pumps it again (stale entries are
        filtered on pump)."""
        waiting = self._waiters.get(device_id)
        if waiting is None:
            waiting = self._waiters[device_id] = {}
        waiting[run.routine_id] = run

    def _pump_released(self, device_ids,
                       also: Optional[RoutineRun] = None) -> None:
        """Pump the runs lock-blocked on the just-released devices.

        Trace-equivalent to pumping every unfinished run: a pump issues
        nothing unless one of the run's ready commands (the next one of
        a serial chain, any ready plan node of a parallel plan) can
        acquire its lineage entry, and the only runs a release can newly
        enable are the registered waiters of the released devices —
        plus, on a post-lease mid-routine release, the releasing run
        itself (``also``), which a full scan would pump from its slot in
        the run list.  Candidates are pumped in submission order
        (ascending routine id), exactly the order a full scan visits
        them.
        """
        waiters = self._waiters
        candidates: Optional[Dict[int, RoutineRun]] = None
        for device_id in device_ids:
            waiting = waiters.get(device_id)
            if waiting:
                waiters[device_id] = {}
                if candidates is None:
                    candidates = waiting
                else:
                    candidates.update(waiting)
        if candidates is None:
            # No lock-blocked waiters; the releasing run (if any) gets
            # its pump from the normal post-command chain.
            return
        if also is not None:
            candidates[also.routine_id] = also
        runs = candidates.values() if len(candidates) == 1 else \
            [candidates[rid] for rid in sorted(candidates)]
        for run in runs:
            if not run.status.finished:
                self._pump(run)

    def _run_next(self, run: RoutineRun) -> None:
        # The execution engine calls this after each command; in EV
        # advancement is lock-gated, so route through the pump.
        self._pump(run)

    def _claim_device(self, run: RoutineRun, command: Command) -> bool:
        """Parallel-dispatch gate: a command may issue once its device's
        lineage entry is ACQUIRED (acquiring it now if it is this
        routine's turn on the device)."""
        lineage = self.table.lineage(command.device_id)
        entry = lineage.entry_for(run.routine_id)
        if entry is None:
            return False    # not placed yet (JiT keeps it queued)
        if entry.status is LockStatus.SCHEDULED:
            if not lineage.try_acquire(entry, self.sim.now,
                                       finished=self.is_finished,
                                       wants_read=entry.reads):
                self._wait_for(run, command.device_id)
                return False
            if self.journal is not None:
                self._journal("lineage-acquired",
                              routine_id=run.routine_id,
                              device_id=command.device_id)
            if entry.pre_leased:
                self._arm_revocation(run, entry)
        return entry.status is LockStatus.ACQUIRED

    def _on_write_applied(self, run: RoutineRun,
                          execution: CommandExecution, prior: Any) -> None:
        entry = self.table.lineage(
            execution.command.device_id).entry_for(run.routine_id)
        if entry is not None:
            entry.applied_value = execution.command.value

    def _on_device_access_done(self, run: RoutineRun,
                               device_id: int) -> None:
        """Last command on the device finished → post-lease (§4.1)."""
        lineage = self.table.lineage(device_id)
        index = lineage.index_of(run.routine_id)
        if index is None:
            return
        entry = lineage.entries[index]
        if entry.status is not LockStatus.ACQUIRED:
            return
        if self.config.post_lease:
            # Inline release (the ACQUIRED guard above is release()'s
            # precondition); index is reused for the post-lease stat
            # instead of a second lineage scan.
            entry.status = LockStatus.RELEASED
            entry.released_at = self.sim.now
            if self.journal is not None:
                self._journal("lineage-released",
                              routine_id=run.routine_id,
                              device_id=device_id)
            if index + 1 < len(lineage.entries):
                self.scheduler_stats["post_leases"] += 1
            self._cancel_revocation(run, device_id)
            self._notify_release(device_id, run)
        # With post-leasing off the entry stays ACQUIRED until finish.

    def _notify_release(self, device_id: int,
                        releasing: Optional[RoutineRun] = None) -> None:
        self.scheduler.on_release(device_id)
        self._pump_released((device_id,), also=releasing)

    # -- finish: commit with compaction (§4.3, Fig 7) ----------------------------------

    def _finish_point(self, run: RoutineRun) -> None:
        released_devices: List[int] = []
        for device_id in run.routine.device_ids:
            lineage = self.table.lineage(device_id)
            entry = lineage.entry_for(run.routine_id)
            if entry is None:
                # A later routine already committed and compacted us away
                # ("last writer wins") — our effect on this device is
                # superseded; no committed-state update.
                continue
            if entry.status is LockStatus.ACQUIRED:
                lineage.release(run.routine_id, self.sim.now)
            self._cancel_revocation(run, device_id)
            if entry.applied_value is not UNSET:
                self.table.set_committed(device_id, entry.applied_value,
                                         source=run.routine_id)
                compacted = self.table.compact_commit(run.routine_id,
                                                      device_id)
                if self.journal is not None:
                    self._journal("lineage-compacted",
                                  routine_id=run.routine_id,
                                  device_id=device_id,
                                  removed=sorted(compacted))
            else:
                self.table.leave(run.routine_id, device_id)
            released_devices.append(device_id)
        self.commit(run)
        if self.config.paranoid:
            self.table.verify_all()
        for device_id in released_devices:
            self.scheduler.on_release(device_id)
        self._pump_released(released_devices)

    def _policy_after_finish(self, run: RoutineRun) -> None:
        self.table.retire(run.routine_id, self.is_finished)
        self.scheduler.on_finish(run)

    # -- abort & rollback (§4.3) ---------------------------------------------------------

    def _rollback(self, run: RoutineRun) -> None:
        released_devices: List[int] = []
        for device_id in run.routine.device_ids:
            lineage = self.table.lineage(device_id)
            entry = lineage.entry_for(run.routine_id)
            if entry is None:
                continue
            self._cancel_revocation(run, device_id)
            # Unless we never wrote the device, or a successor's write
            # is already the latest, restore what precedes our write.
            target = UNSET
            if lineage.is_last_writer(run.routine_id):
                target = self.undo_registry.resolve(
                    run.last_writes()[device_id],
                    lineage.rollback_target(run.routine_id))
            self.table.leave(run.routine_id, device_id)
            self._restore_device(run, device_id, target)
            released_devices.append(device_id)
        if self.config.paranoid:
            self.table.verify_all()
        for device_id in released_devices:
            self.scheduler.on_release(device_id)
        self._pump_released(released_devices)

    def _restore_device(self, run: RoutineRun, device_id: int,
                        target: Any) -> None:
        if target is UNSET:
            return
        super()._restore_device(run, device_id, target)

    # -- lease revocation (§4.1) -----------------------------------------------------------

    def _arm_revocation(self, run: RoutineRun, entry: LockAccess) -> None:
        if not self.config.post_lease:
            # The revocation deadline is "estimated time between Rdst's
            # first and last actions on D" (§4.1) — meaningful only when
            # the lock returns after the last access.  With post-leasing
            # ablated the lock is held to routine finish, which includes
            # unbounded waits on other devices, so leases are not
            # revocable in that mode.
            return
        deadline = (entry.duration * self.config.leniency_factor
                    + self.config.revoke_slack_s)
        event = self.sim.call_after(
            deadline, self._revoke, run, entry.device_id,
            label="revoke")
        self._revocations[(run.routine_id, entry.device_id)] = event

    def _cancel_revocation(self, run: RoutineRun, device_id: int) -> None:
        event = self._revocations.pop((run.routine_id, device_id), None)
        self.sim.cancel(event)

    def _revoke(self, run: RoutineRun, device_id: int) -> None:
        self._revocations.pop((run.routine_id, device_id), None)
        if run.done:
            return
        lineage = self.table.lineage(device_id)
        entry = lineage.entry_for(run.routine_id)
        if entry is None or entry.status is not LockStatus.ACQUIRED:
            return
        index = lineage.index_of(run.routine_id)
        waiting_behind = index + 1 < len(lineage.entries)
        if waiting_behind:
            self.request_abort(
                run, f"leased lock on device {device_id} revoked")

    # -- failure serialization (§3, EV rules) ------------------------------------------------

    def _policy_on_failure(self, device_id: int) -> None:
        for run in self.active_runs():
            if device_id not in run.routine.device_ids:
                continue  # case 1: arbitrary order
            if run.done_on(device_id):
                continue  # case 3: serialize failure after R
            if run.in_touch_phase(device_id):
                # Case 4: the failure splits R's touches — unless every
                # remaining command on the device is best-effort.
                if self._has_must_command(run, device_id):
                    self.request_abort(
                        run, f"failure of device {device_id} mid-touch")
            # Untouched device (case 2): tolerated if it restarts before
            # R's first touch; otherwise the believed-failed check at
            # touch time aborts/skips.

    @staticmethod
    def _has_must_command(run: RoutineRun, device_id: int) -> bool:
        return any(c.must for c in run.commands
                   if c.device_id == device_id)

    # -- durability: state capture -------------------------------------------------------------

    def snapshot_state(self):
        state = super().snapshot_state()
        state["lineage"] = self.table.snapshot()
        state["retained_order"] = self.table.order.snapshot()
        state["scheduler_stats"] = tuple(sorted(self.scheduler_stats.items()))
        state["armed_revocations"] = tuple(sorted(self._revocations))
        return state
