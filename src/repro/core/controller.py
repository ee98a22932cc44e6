"""Controller infrastructure shared by every visibility model.

A *controller* owns the execution of routines against the device
substrate: issuing commands through the driver, tracking per-routine
runtime state, rolling back aborted routines, and reacting to failure /
restart detections from the hub's failure detector.  Subclasses
(`wv`, `gsv`, `psv`, `ev`) supply the concurrency and failure-
serialization policy.
"""

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Set,
                    Tuple)

from repro.core.command import Command, CommandExecution, ExecutionHistory
from repro.core.digest import ChainDigest, MultisetDigest, part_digest
from repro.core.routine import Routine
from repro.devices.device import WriteLog
from repro.devices.driver import CommandOutcome, Driver
from repro.devices.registry import DeviceRegistry
from repro.errors import SafeHomeError
from repro.sim.engine import Simulator


class RoutineStatus(enum.Enum):
    PENDING = "pending"        # submitted, arrival scheduled
    WAITING = "waiting"        # arrived, not yet executing
    RUNNING = "running"        # executing commands
    COMMITTED = "committed"
    ABORTED = "aborted"


# `status.finished` sits on the hottest lock-admission path (every
# lineage scan asks it per entry), so it is precomputed as a plain
# per-member attribute instead of a property building a tuple per call.
for _status in RoutineStatus:
    _status.finished = _status in (RoutineStatus.COMMITTED,
                                   RoutineStatus.ABORTED)
del _status


@dataclass
class ControllerConfig:
    """Tunables shared across visibility models.

    Attributes mirror the paper's implementation choices: §4.1 leasing
    with a 1.1× leniency factor, §4.3's 100 ms τ-timeout floor on
    duration estimates, and §6's failure-detector timings.
    """

    pre_lease: bool = True
    post_lease: bool = True
    leniency_factor: float = 1.1
    revoke_slack_s: float = 1.0     # absorbs network jitter in revocation
    tau_timeout_s: float = 0.1      # duration-estimate floor (short cmds)
    estimate_error: float = 0.0     # relative error injected into estimates
    scheduler: str = "timeline"     # fcfs | jit | timeline
    execution: str = "serial"       # serial | parallel (command plan)
    jit_ttl_s: float = 120.0        # JiT anti-starvation TTL
    stretch_threshold: float = 4.0  # TL admission bound (×ideal runtime)
    reconcile_on_restart: bool = True
    paranoid: bool = False          # verify lineage invariants continuously


class RoutineRun:
    """Runtime record of one routine instance.

    A ``__slots__`` class, not a dataclass: one is retained per routine
    the hub ever ran (the report and the oracle read them after the
    run), so a finished run keeps no ``__dict__`` and no container it
    no longer needs: at settle its plan goes and its executions are
    packed into an :class:`~repro.core.command.ExecutionHistory`.
    Equality is identity (routine ids are unique).
    """

    __slots__ = ("routine", "routine_id", "submit_time", "status",
                 "start_time", "finish_time", "next_index", "executions",
                 "abort_reason", "abort_pending", "inflight_count", "plan",
                 "lock_wait_s", "arrival_seq", "done_mask",
                 "rolled_back_commands")

    def __init__(self, routine: Routine, routine_id: int, submit_time: float,
                 status: RoutineStatus = RoutineStatus.PENDING,
                 start_time: Optional[float] = None,
                 finish_time: Optional[float] = None,
                 executions: Optional[List[CommandExecution]] = None) -> None:
        self.routine = routine
        self.routine_id = routine_id
        self.submit_time = submit_time
        self.status = status
        self.start_time = start_time
        self.finish_time = finish_time
        self.next_index = 0
        self.executions = [] if executions is None else executions
        self.abort_reason = ""
        self.abort_pending = ""
        self.inflight_count = 0
        # CommandPlan (execution core): None until the first parallel
        # dispatch and again once the run settles.
        self.plan: Optional[Any] = None
        # Seconds commands spent ready-but-blocked on locks (parallel
        # plans) plus lock-table admission waits.
        self.lock_wait_s = 0.0
        # Order of arrival at the controller (lock-table admission FIFO).
        self.arrival_seq = -1
        # Bit ``1 << device_id`` set once the routine has completed its
        # last command on that device (an int allocates no set per run).
        self.done_mask = 0
        self.rolled_back_commands = 0

    def __repr__(self) -> str:
        return (f"RoutineRun({self.routine_id}, {self.name!r}, "
                f"{self.status.value})")

    def done_on(self, device_id: int) -> bool:
        """Has the routine completed its last command on the device?"""
        return self.done_mask >> device_id & 1 == 1

    def done_devices(self) -> tuple:
        """Ascending ids of the devices :meth:`done_on` holds for."""
        mask, ids = self.done_mask, []
        while mask:
            low = mask & -mask
            ids.append(low.bit_length() - 1)
            mask ^= low
        return tuple(ids)

    @property
    def inflight(self) -> bool:
        """At least one command is currently executing (parallel plans
        may have several in flight at once)."""
        return self.inflight_count > 0

    @property
    def name(self) -> str:
        return self.routine.name

    @property
    def commands(self) -> List[Command]:
        return self.routine.commands

    @property
    def done(self) -> bool:
        return self.status.finished

    @property
    def wait_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def latency(self) -> Optional[float]:
        """Submission → successful completion (paper's primary metric)."""
        if self.status is not RoutineStatus.COMMITTED:
            return None
        return self.finish_time - self.submit_time

    def applied_writes(self) -> Iterator[Tuple[Command, Optional[float]]]:
        """``(command, started_at)`` per applied write, in issue order
        (read from a settled run's packed columns, no views built)."""
        executions = self.executions
        if isinstance(executions, ExecutionHistory):
            return executions.applied_writes()
        return ((e.command, e.started_at) for e in executions
                if e.applied and e.command.is_write)

    def last_writes(self) -> Dict[int, Command]:
        """Last *applied* write per device (skips excluded), devices in
        the order of their first applied write."""
        writes: Dict[int, Command] = {}
        for command, _started_at in self.applied_writes():
            writes[command.device_id] = command
        return writes

    def effective_final_writes(self) -> Dict[int, Any]:
        """The value of each device's last applied write."""
        return {device_id: command.value
                for device_id, command in self.last_writes().items()}

    def in_touch_phase(self, device_id: int) -> bool:
        """True between the first and last command on ``device_id``."""
        return not self.done_on(device_id) and any(
            e.command.device_id == device_id for e in self.executions)


class Controller:
    """Base class: command execution, aborts, rollback, bookkeeping."""

    model_name = "base"
    # What happens to a RUNNING routine when the hub crashes and recovers
    # in "policy" mode (see docs/durability.md): "resume" re-issues its
    # remaining commands, "abort" rolls it back at recovery time.  Each
    # visibility model pins its own value.
    hub_recovery_policy = "resume"

    def __init__(self, sim: Simulator, registry: DeviceRegistry,
                 driver: Driver,
                 config: Optional[ControllerConfig] = None) -> None:
        self.sim = sim
        self.registry = registry
        self.driver = driver
        self.config = config or ControllerConfig()
        self.runs: List[RoutineRun] = []
        self._runs_by_id: Dict[int, RoutineRun] = {}
        # The runs not yet finished, in submission order: the failure
        # detector asks "all done?" on every tick.
        self._unfinished: Dict[int, RoutineRun] = {}
        self._next_routine_id = 0
        # The hub's *belief* about device liveness (detection, not truth).
        self.believed_failed: Set[int] = set()
        # Detection event log: ("failure"|"restart", device_id, time).
        self.detection_events: List[tuple] = []
        # Live subscribers to detections: callback(kind, device_id, time).
        self.on_detection: List[Callable[[str, int, float], None]] = []
        # device id -> value to re-apply when the device restarts.
        self.pending_reconcile: Dict[int, Any] = {}
        # Per-device order in which routines completed their last access
        # (feeds the serialization-order reconstruction).
        self.device_access_order: Dict[int, List[int]] = {}
        self.on_routine_finished: List[Callable[[RoutineRun], None]] = []
        self._reset_digests()
        # The durable hub's WAL (an object with .observe(type, payload,
        # time)); None keeps journaling at zero cost.
        self.journal: Optional[Any] = None
        # User-specified undo handlers for irreversible commands (§2.2),
        # and the per-device write chains rollback targets come from.
        from repro.core.undo import UndoRegistry, WriteChains
        self.undo_registry = UndoRegistry()
        self.writes = WriteChains()

    def _journal(self, type_: str, **payload: Any) -> None:
        """Append one observation record to the hub's WAL, if any; the
        run it names is re-hashed at the next checkpoint."""
        journal = self.journal
        if journal is not None:
            journal.observe(type_, payload, self.sim.now)
            routine_id = payload.get("routine_id")
            if routine_id is not None:
                self._changed_runs.add(routine_id)

    def _changed(self, run: RoutineRun) -> None:
        """Mark a run mutation no observation names (see _journal)."""
        if self.journal is not None:
            self._changed_runs.add(run.routine_id)

    # -- submission ------------------------------------------------------------

    def submit(self, routine: Routine,
               when: Optional[float] = None) -> RoutineRun:
        """Register a routine to arrive at ``when`` (default: now)."""
        when = self.sim.now if when is None else when
        run = RoutineRun(routine=routine,
                         routine_id=self._next_routine_id,
                         submit_time=when)
        self._next_routine_id += 1
        self.runs.append(run)
        self._runs_by_id[run.routine_id] = run
        self._unfinished[run.routine_id] = run
        if self.journal is not None:
            self._journal("routine-submitted", routine_id=run.routine_id,
                          name=routine.name, when=when)
        self.sim.call_at(when, self._arrival, run, label="arrive")
        return run

    def _arrival(self, run: RoutineRun) -> None:
        if not run.done:    # cancelled before it arrived: stays aborted
            self._changed(run)      # WAITING, unobserved under EV
            self._arrive(run)

    def _arrive(self, run: RoutineRun) -> None:
        """Routine reaches the hub; policy decides when it starts."""
        raise NotImplementedError

    # -- command execution helpers ----------------------------------------------

    def _begin(self, run: RoutineRun) -> None:
        if run.status in (RoutineStatus.PENDING, RoutineStatus.WAITING):
            run.status = RoutineStatus.RUNNING
            run.start_time = self.sim.now
            if self.journal is not None:
                self._journal("routine-admitted",
                              routine_id=run.routine_id)

    def _issue_command(self, run: RoutineRun, command: Command,
                       on_done: Callable[[RoutineRun, CommandExecution], None]
                       ) -> CommandExecution:
        """Fire one command through the driver; ``on_done`` runs after the
        command's duration elapses (or immediately on skip/timeout)."""
        execution = CommandExecution(command=command,
                                     started_at=self.sim.now)
        run.executions.append(execution)
        run.inflight_count += 1
        if self.journal is not None:
            self._journal("command-dispatched", routine_id=run.routine_id,
                          device_id=command.device_id,
                          index=len(run.executions) - 1,
                          read=command.is_read)

        if command.device_id in self.believed_failed:
            # The hub already believes the device is down: no point
            # issuing; resolve instantly as a timeout-equivalent.
            self._command_unreachable(run, execution, on_done)
            return execution

        if command.is_read:
            self._issue_read(run, execution, on_done)
            return execution

        self.driver.issue(command.device_id, command.value,
                          source=run.routine_id,
                          callback=self._write_landed,
                          cb_args=(run, execution, on_done))
        return execution

    def _write_landed(self, outcome: CommandOutcome, prior: Any,
                      run: RoutineRun, execution: CommandExecution,
                      on_done: Callable) -> None:
        """Driver callback for a write command (bound method + explicit
        args instead of a per-command closure — the hottest callback in
        fleet runs)."""
        if outcome is CommandOutcome.APPLIED:
            command = execution.command
            execution.applied = True
            self._on_write_applied(run, execution, prior)
            self.sim.call_after(command.duration, self._command_elapsed,
                                run, execution, on_done,
                                label="cmd-done")
        else:
            self._command_unreachable(run, execution, on_done)

    def _issue_read(self, run: RoutineRun, execution: CommandExecution,
                    on_done: Callable) -> None:
        command = execution.command

        def landed(outcome: CommandOutcome) -> None:
            if outcome is CommandOutcome.APPLIED:
                execution.applied = True
                execution.observed = self.registry.get(
                    command.device_id).state
                self.sim.call_after(command.duration,
                                    self._command_elapsed,
                                    run, execution, on_done,
                                    label="read-done")
            else:
                self._command_unreachable(run, execution, on_done)

        # A read is an API call with no state change.
        self.driver.ping(command.device_id, landed)

    def _command_elapsed(self, run: RoutineRun, execution: CommandExecution,
                         on_done: Callable) -> None:
        execution.finished_at = self.sim.now
        if self._resolved(run, execution):
            on_done(run, execution)

    def _command_unreachable(self, run: RoutineRun,
                             execution: CommandExecution,
                             on_done: Callable) -> None:
        """Command could not reach its device: skip or abort (§2.2)."""
        execution.finished_at = self.sim.now
        execution.skipped = True
        if not self._resolved(run, execution):
            return
        if execution.command.must:
            self.request_abort(run, f"must-command unreachable "
                                    f"(device {execution.command.device_id})")
        else:
            on_done(run, execution)

    def _resolved(self, run: RoutineRun,
                  execution: CommandExecution) -> bool:
        """One in-flight execution resolved; True when the run goes on
        from it (it is unfinished and no abort is pending)."""
        run.inflight_count -= 1
        self._on_execution_resolved(run, execution)
        if run.done:
            if not run.inflight_count:  # finished while this was in flight
                self._pack_history(run)
            return False
        if run.abort_pending:
            # A parallel plan may still have sibling commands in flight;
            # the abort fires when the last one resolves (serial plans
            # are always at zero here).
            if not run.inflight_count:
                reason, run.abort_pending = run.abort_pending, ""
                self.abort(run, reason)
            return False
        return True

    def _on_execution_resolved(self, run: RoutineRun,
                               execution: CommandExecution) -> None:
        """Hook: an execution finished, was skipped or timed out (runs
        on every resolution path; the execution engine frees the
        per-device FIFO slot here, after calling super())."""
        if self.journal is not None:
            self._journal("command-acked", routine_id=run.routine_id,
                          device_id=execution.command.device_id,
                          applied=execution.applied,
                          skipped=execution.skipped)

    def _on_write_applied(self, run: RoutineRun,
                          execution: CommandExecution, prior: Any) -> None:
        """A write landed over ``prior``: it joins its device's write
        chain (EV records it in the lineage instead)."""
        command = execution.command
        self.writes.land(run.routine_id, command.device_id, command.value,
                         prior)

    # -- finish / abort -----------------------------------------------------------

    def request_abort(self, run: RoutineRun, reason: str) -> None:
        """Abort now, or as soon as the in-flight command resolves."""
        if run.done:
            return
        if run.inflight:
            if not run.abort_pending:
                run.abort_pending = reason
            return
        self.abort(run, reason)

    def abort(self, run: RoutineRun, reason: str) -> None:
        if run.done:
            return
        self._settle(run, RoutineStatus.ABORTED)
        run.abort_reason = reason
        if self.journal is not None:
            self._journal("routine-aborted", routine_id=run.routine_id,
                          reason=reason)
        self._rollback(run)
        self._after_finish(run)

    def commit(self, run: RoutineRun) -> None:
        if run.done:
            return
        self._settle(run, RoutineStatus.COMMITTED)
        if self.journal is not None:
            self._journal("routine-committed",
                          routine_id=run.routine_id)
        self._on_commit(run)
        self._after_finish(run)

    def _settle(self, run: RoutineRun, status: RoutineStatus) -> None:
        """The one place a run becomes finished."""
        run.status = status
        run.finish_time = self.sim.now
        del self._unfinished[run.routine_id]

    def _on_commit(self, run: RoutineRun) -> None:
        """The committer's writes become their chains' bases."""
        self.writes.commit(run.routine_id)

    def _pack_history(self, run: RoutineRun) -> None:
        """A settled run with nothing in flight keeps only what the
        report reads: no plan, its executions packed."""
        run.plan = None
        run.executions = ExecutionHistory(run.routine.commands,
                                          run.executions)

    def _after_finish(self, run: RoutineRun) -> None:
        if not run.inflight_count:
            self._pack_history(run)
        for callback in self.on_routine_finished:
            callback(run)
        self._policy_after_finish(run)

    def _policy_after_finish(self, run: RoutineRun) -> None:
        """Hook: start queued routines, release locks, etc."""

    # -- rollback (§2.2, §4.3) -----------------------------------------------------

    def _rollback(self, run: RoutineRun) -> None:
        """Undo the aborted routine's applied writes: each device its
        write still tops returns to the newest surviving write there
        (:class:`~repro.core.undo.WriteChains`).  EV overrides this with
        the same rule over its lineage table.
        """
        targets = self.writes.abort(run.routine_id)
        for device_id, command in run.last_writes().items():
            if device_id in targets:
                self._restore_device(run, device_id, self.undo_registry
                                     .resolve(command, targets[device_id]))

    def _restore_device(self, run: RoutineRun, device_id: int,
                        target: Any) -> None:
        device = self.registry.get(device_id)
        undone = sum(1 for e in run.executions
                     if e.applied and e.command.is_write
                     and e.command.device_id == device_id)
        for execution in run.executions:
            if execution.applied and execution.command.device_id == device_id:
                execution.rolled_back = True
        run.rolled_back_commands += undone
        if device.state == target and device_id not in self.believed_failed:
            return
        self._hub_write(device_id, target, ("rollback", run.routine_id))

    def _hub_write(self, device_id: int, target: Any, tag: Any) -> None:
        """A hub-initiated corrective write (rollback / reconcile).

        Applied instantaneously: corrective writes must stay ordered
        with the routine writes the concurrency policy serializes, and
        giving them their own network delay would let them race with
        the next routine's first command.  (The ~one-RTT error this
        introduces is invisible to every §7 metric.)
        """
        from repro.errors import DeviceUnavailableError

        if device_id in self.believed_failed:
            if self.config.reconcile_on_restart:
                self.pending_reconcile[device_id] = target
            return
        try:
            self.registry.get(device_id).apply(target, self.sim.now, tag)
        except DeviceUnavailableError:
            # Failed but not yet detected; reconcile once it is.
            if self.config.reconcile_on_restart:
                self.pending_reconcile[device_id] = target

    # -- failure detection ------------------------------------------------------------

    def on_failure_detected(self, device_id: int) -> None:
        if device_id in self.believed_failed:
            return
        self.believed_failed.add(device_id)
        self.detection_events.append(("failure", device_id, self.sim.now))
        self._journal("detection", kind="failure", device_id=device_id)
        self._notify_detection("failure", device_id)
        self._policy_on_failure(device_id)

    def on_restart_detected(self, device_id: int) -> None:
        if device_id not in self.believed_failed:
            return
        self.believed_failed.discard(device_id)
        self.detection_events.append(("restart", device_id, self.sim.now))
        self._journal("detection", kind="restart", device_id=device_id)
        self._notify_detection("restart", device_id)
        if device_id in self.pending_reconcile:
            target = self.pending_reconcile.pop(device_id)
            self._hub_write(device_id, target, ("reconcile", device_id))
        self._policy_on_restart(device_id)

    def _notify_detection(self, kind: str, device_id: int) -> None:
        for callback in self.on_detection:
            callback(kind, device_id, self.sim.now)

    def _policy_on_failure(self, device_id: int) -> None:
        """Hook: failure-serialization rules of the model (§3)."""

    def _policy_on_restart(self, device_id: int) -> None:
        """Hook: restart-serialization rules of the model (§3)."""

    # -- durability: state capture & hub-crash policy ---------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Recoverable controller state for a hub checkpoint: part name
        -> plain rows (see :mod:`repro.core.digest`).

        Subclasses add their model-specific parts (EV lineage, OCC
        commit log, lock-table holdings).  The parts that grow with the
        home's history (``runs``, ``device_access_order``, OCC's commit
        log and retries) are returned as their 32-byte digest, kept up
        to date by hashing only what changed since the last call.
        """
        return {
            "model": self.model_name,
            "believed_failed": tuple(sorted(self.believed_failed)),
            "pending_reconcile": tuple(sorted(
                self.pending_reconcile.items())),
            "device_access_order": self._snapshot_access_order(),
            "runs": self._snapshot_runs(),
        }

    def _reset_digests(self) -> None:
        """Empty history digests: the next snapshot hashes it all."""
        self._run_digest = MultisetDigest()
        self._changed_runs: Set[int] = set()
        self._access_chains: Dict[int, ChainDigest] = defaultdict(
            ChainDigest)

    def _snapshot_runs(self) -> bytes:
        """Multiset digest of one leaf per run ever submitted, a live
        run's plan progress included; re-hashes the runs new or marked
        changed since the last call (ids are ``self.runs`` indexes)."""
        if self.journal is None:    # nothing marks changes: hash them all
            self._reset_digests()
        digest, changed = self._run_digest, self._changed_runs
        changed.update(range(len(digest), len(self.runs)))
        for routine_id in changed:
            run = self.runs[routine_id]
            digest.put(routine_id, (
                routine_id, run.name, run.status.value, run.next_index,
                len(run.executions), run.inflight_count,
                run.done_devices(),
                None if run.plan is None else run.plan.snapshot()))
        changed.clear()
        return digest.digest()

    def _snapshot_access_order(self) -> bytes:
        """Per device a chain over its append-only id list, chained
        element by element; the part is the sorted chain heads."""
        chains = self._access_chains
        heads = []
        for device_id, order in sorted(self.device_access_order.items()):
            chain = chains[device_id]
            if chain.count != len(order):
                chain.extend(order[chain.count:])
            heads.append((device_id, chain.head))
        return part_digest(tuple(heads))

    def hub_recovery_action(self, run: RoutineRun) -> str:
        """Fate of a RUNNING routine under "policy"-mode hub recovery:
        ``"resume"`` or ``"abort"`` (see :attr:`hub_recovery_policy`)."""
        return self.hub_recovery_policy

    # -- bookkeeping ------------------------------------------------------------------

    def record_last_access(self, run: RoutineRun, device_id: int) -> None:
        """Called when a routine completes its last command on a device."""
        run.done_mask |= 1 << device_id
        order = self.device_access_order.get(device_id)
        if order is None:
            order = self.device_access_order[device_id] = []
        order.append(run.routine_id)

    def active_runs(self) -> List[RoutineRun]:
        """The unfinished runs, in submission order."""
        return list(self._unfinished.values())

    def all_done(self) -> bool:
        return not self._unfinished

    def run_by_id(self, routine_id: int) -> RoutineRun:
        run = self._runs_by_id.get(routine_id)
        if run is None:
            raise SafeHomeError(f"no run with id {routine_id}")
        return run

    def is_finished(self, routine_id: int) -> bool:
        run = self._runs_by_id.get(routine_id)
        if run is None:
            run = self.run_by_id(routine_id)   # raises SafeHomeError
        return run.status.finished


@dataclass
class RunResult:
    """Everything an experiment needs after a simulation completes."""

    model_name: str
    runs: List[RoutineRun]
    end_state: Dict[int, Any]
    makespan: float
    device_write_logs: Dict[int, WriteLog]
    detection_events: List[tuple]
    device_access_order: Dict[int, List[int]]

    @property
    def committed(self) -> List[RoutineRun]:
        return [r for r in self.runs
                if r.status is RoutineStatus.COMMITTED]

    @property
    def aborted(self) -> List[RoutineRun]:
        return [r for r in self.runs if r.status is RoutineStatus.ABORTED]

    @property
    def abort_rate(self) -> float:
        if not self.runs:
            return 0.0
        return len(self.aborted) / len(self.runs)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.committed]

    def rollback_overheads(self) -> List[float]:
        """Per aborted routine: fraction of its commands rolled back."""
        overheads = []
        for run in self.aborted:
            total = len(run.commands)
            if total:
                overheads.append(run.rolled_back_commands / total)
        return overheads

    @classmethod
    def from_controller(cls, controller: Controller) -> "RunResult":
        registry = controller.registry
        return cls(
            model_name=controller.model_name,
            runs=list(controller.runs),
            end_state=registry.snapshot(),
            makespan=controller.sim.now,
            device_write_logs={d.device_id: d.write_log.copy()
                               for d in registry},
            detection_events=list(controller.detection_events),
            device_access_order={k: list(v) for k, v in
                                 controller.device_access_order.items()},
        )
