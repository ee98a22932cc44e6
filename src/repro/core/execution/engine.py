"""The shared execution engine: drive a routine's command plan.

``PlanExecutionMixin`` is what every visibility controller now inherits
instead of hand-rolling its command chain.  It owns three policy-agnostic
mechanisms:

* the **serial chain** — the command-after-command driver, kept
  bit-compatible because the paper's experiments (and every seeded
  baseline report) execute routines strictly in order;
* the **parallel dispatcher** — runs the routine's compiled command
  DAG on a per-run :class:`~repro.core.execution.plan.CommandPlan` and
  issues every ready command whose device the policy lets it claim,
  through the per-device
  :class:`~repro.core.execution.queues.DeviceQueues` FIFO;
* **lock-table admission** — the helper GSV and PSV use to express
  their admission rules as acquisitions against the shared
  :class:`~repro.core.execution.locks.LockTable` (with the wait-for
  cycle safety net; admission acquires atomically in arrival order, so
  cycles cannot arise from the built-in policies, but a custom policy
  acquiring incrementally is protected by deterministic victim abort).

Controllers choose the strategy via ``ControllerConfig.execution``
(``"serial"`` | ``"parallel"``) and customize three hooks:
``_claim_device`` (may this ready command execute now?),
``_start_admitted`` (a lock-table admission completed) and the existing
finish/failure-point hooks.
"""

from typing import List, Sequence

from repro.core.command import CommandExecution
from repro.core.controller import Controller, RoutineRun
from repro.core.execution.locks import LockMode, LockTable
from repro.core.execution.plan import READY, STRATEGIES, CommandPlan
from repro.core.execution.queues import DeviceQueues


class PlanExecutionMixin(Controller):
    """Drives a routine's commands under the configured plan strategy."""

    # Built-in policies acquire their whole footprint atomically in
    # arrival order, so the wait-for graph is provably acyclic and the
    # per-admission cycle scan would be pure overhead.  A custom policy
    # that acquires locks *incrementally* after admission should flip
    # this on to get deterministic victim aborts instead of hangs.
    deadlock_detection = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        strategy = getattr(self.config, "execution", "serial")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown execution strategy {strategy!r}; "
                f"pick from {STRATEGIES}")
        self.locks = LockTable()
        self.device_queues = DeviceQueues()
        self._arrival_counter = 0
        # routine id -> resources still awaited for lock-table admission.
        self._admission_pending = {}
        # The strategy is fixed for the controller's lifetime (SafeHome
        # rebuilds the whole stack on recovery), so the per-pump flag is
        # computed once instead of a getattr + compare per command.
        self._parallel_flag = strategy == "parallel"

    # -- strategy ----------------------------------------------------------------

    def _parallel_enabled(self) -> bool:
        return self._parallel_flag

    # -- serial chain (bit-compatible with the seeded baseline reports) -------

    def _run_next(self, run: RoutineRun) -> None:
        if self._parallel_enabled():
            self._dispatch(run)
            return
        if run.done or run.inflight:
            return
        if run.next_index >= len(run.commands):
            self._finish_point(run)
            return
        command = run.commands[run.next_index]
        run.next_index += 1
        self._issue_command(run, command, self._after_command)

    def _after_command(self, run: RoutineRun,
                       execution: CommandExecution) -> None:
        device_id = execution.command.device_id
        if run.routine.footprint.last_index(device_id) < run.next_index:
            self.record_last_access(run, device_id)
            self._on_device_access_done(run, device_id)
        self._run_next(run)

    def _finish_point(self, run: RoutineRun) -> None:
        """All commands processed; default is to commit immediately."""
        self.commit(run)

    def _on_device_access_done(self, run: RoutineRun,
                               device_id: int) -> None:
        """Hook: EV releases the virtual lock (post-lease) here."""

    # -- parallel dispatch ---------------------------------------------------------

    def _dispatch(self, run: RoutineRun) -> None:
        """Issue every ready plan node whose device the policy grants."""
        if run.status.finished or run.abort_pending:
            return
        plan = run.plan
        if plan is None:    # the run's first dispatch: it has arrived
            plan = run.plan = CommandPlan(run.routine, self.config.execution,
                                          self.sim.now)
            self._changed(run)  # no observation need name it
        state, commands = plan.state, run.routine.commands
        for index in plan.ready[:]:
            if state[index] is not READY:
                # A believed-failed device resolves its command
                # synchronously, so issuing one node can re-enter
                # _dispatch and issue later ready nodes before this
                # loop reaches them; don't issue them twice.
                continue
            command = commands[index]
            if not self._claim_device(run, command):
                continue
            run.lock_wait_s += plan.mark_issued(index, self.sim.now)
            self._begin(run)
            self.device_queues.submit(command.device_id,
                                      self._node_thunk(run, index))
        if not plan.remaining and not run.inflight_count and \
                not run.status.finished:
            self._finish_point(run)

    def _claim_device(self, run: RoutineRun, command) -> bool:
        """May this ready command execute now?  Policy hook: the default
        (WV/OCC — no locks; GSV/PSV — whole-routine admission already
        holds every lock) always grants; EV gates on its lineage."""
        return True

    def _node_thunk(self, run: RoutineRun, index: int):
        def fire() -> bool:
            if run.done or run.abort_pending:
                return False
            command = run.commands[index]
            self._issue_command(
                run, command,
                lambda r, e: self._after_parallel_command(r, e, index))
            return True
        return fire

    def _after_parallel_command(self, run: RoutineRun,
                                execution: CommandExecution,
                                index: int) -> None:
        run.plan.mark_done(index, self.sim.now)
        device_id = execution.command.device_id
        if index == run.routine.footprint.last_index(device_id):
            self.record_last_access(run, device_id)
            self._on_device_access_done(run, device_id)
        self._dispatch(run)

    def _on_execution_resolved(self, run: RoutineRun,
                               execution: CommandExecution) -> None:
        """Free the device FIFO slot the moment an execution resolves —
        including abort/skip paths that never reach ``on_done``."""
        super()._on_execution_resolved(run, execution)
        if self._parallel_enabled():
            self.device_queues.complete(execution.command.device_id)

    # -- durability: state capture -------------------------------------------------

    def snapshot_state(self):
        """Adds the lock table, the device FIFOs and admission state
        (a live run's plan progress is part of its ``runs`` leaf)."""
        state = super().snapshot_state()
        state["locks"] = self.locks.snapshot()
        state["device_queues"] = self.device_queues.snapshot()
        state["admission_pending"] = tuple(
            (owner, tuple(sorted(resources)))
            for owner, resources in sorted(self._admission_pending.items()))
        state["arrival_counter"] = self._arrival_counter
        return state

    # -- lock-table admission (GSV/PSV policies) -----------------------------------

    def _admit_with_locks(self, run: RoutineRun,
                          resources: Sequence[int],
                          mode: LockMode = LockMode.EXCLUSIVE) -> bool:
        """Acquire every resource or enqueue FIFO; True when fully
        granted now.  Resources are requested atomically in arrival
        order, which makes admission deadlock-free by construction
        (wait-for edges always point at earlier arrivals)."""
        run.arrival_seq = self._arrival_counter
        self._arrival_counter += 1
        now = self.sim.now
        pending = set()
        for resource in resources:
            if not self.locks.acquire(run.routine_id, resource,
                                      mode=mode, now=now):
                pending.add(resource)
        self._journal("admission", routine_id=run.routine_id,
                      resources=sorted(resources),
                      granted=not pending,
                      waiting=sorted(pending))
        if not pending:
            return True
        self._admission_pending[run.routine_id] = pending
        if self.deadlock_detection:              # custom-policy safety net
            victim = self.locks.detect_deadlock()
            if victim is not None:
                self.request_abort(self.run_by_id(victim),
                                   "deadlock victim (lock-table cycle)")
        return False

    def _release_admission_locks(self, run: RoutineRun) -> None:
        """Return a finished routine's locks; start newly admitted runs
        in arrival order (reproducing the old queue-scan order)."""
        self._admission_pending.pop(run.routine_id, None)
        grants = self.locks.forget(run.routine_id, self.sim.now)
        startable: List[RoutineRun] = []
        for grant in grants:
            pending = self._admission_pending.get(grant.owner)
            if pending is None:
                continue
            pending.discard(grant.resource)
            if not pending:
                del self._admission_pending[grant.owner]
                startable.append(self.run_by_id(grant.owner))
        for next_run in sorted(startable, key=lambda r: r.arrival_seq):
            next_run.lock_wait_s += self.locks.wait_seconds.pop(
                next_run.routine_id, 0.0)
            self._journal("lock-granted", routine_id=next_run.routine_id,
                          released_by=run.routine_id)
            if next_run.done:
                self._release_admission_locks(next_run)
            else:
                self._start_admitted(next_run)

    def _start_admitted(self, run: RoutineRun) -> None:
        """Hook: a lock-table admission completed; begin the routine."""
        raise NotImplementedError
