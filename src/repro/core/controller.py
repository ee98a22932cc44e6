"""Controller infrastructure shared by every visibility model.

A *controller* owns the execution of routines against the device
substrate: issuing commands through the driver, tracking per-routine
runtime state, rolling back aborted routines, and reacting to failure /
restart detections from the hub's failure detector.  Subclasses
(`wv`, `gsv`, `psv`, `ev`) supply the concurrency and failure-
serialization policy.
"""

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.command import Command, CommandExecution
from repro.core.routine import Routine
from repro.devices.driver import CommandOutcome, Driver
from repro.devices.registry import DeviceRegistry
from repro.errors import SafeHomeError
from repro.sim.engine import Simulator


class Canonical(str):
    """Canonical JSON text of one ``snapshot_state()`` subtree.

    Exactly what ``json.dumps(jsonify(subtree), sort_keys=True)`` would
    produce; the checkpoint digest splices it in verbatim instead of
    encoding the subtree again (see :meth:`Controller.snapshot_state`).
    """

    __slots__ = ()


#: ``json.dumps(value, sort_keys=True)`` without building an encoder per
#: call.  The fragments controllers encode with it hold only ints,
#: floats, strs, None and lists/str-keyed dicts of them, on which
#: ``jsonify`` is the identity.
encode_fragment = json.JSONEncoder(sort_keys=True).encode


def canonical_object(members) -> Canonical:
    """The JSON object of ``(key, encoded value)`` pairs, keys ordered
    the way ``sort_keys`` orders them once ``jsonify`` made them strs."""
    return Canonical("{%s}" % ", ".join(
        f"{encode_fragment(key)}: {text}" for key, text in sorted(members)))


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


@dataclass
class RoutineRun:
    """Runtime record of one routine instance."""

    routine: Routine
    routine_id: int
    submit_time: float
    status: RoutineStatus = RoutineStatus.PENDING
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    next_index: int = 0
    executions: List[CommandExecution] = field(default_factory=list)
    abort_reason: str = ""
    abort_pending: str = ""
    inflight_count: int = 0
    # Compiled CommandPlan (execution core); None until first dispatch.
    plan: Optional[Any] = None
    # Seconds commands spent ready-but-blocked on locks (parallel plans)
    # plus lock-table admission waits.
    lock_wait_s: float = 0.0
    # Order of arrival at the controller (lock-table admission FIFO).
    arrival_seq: int = -1
    # Devices → state observed just before this routine's first write
    # (rollback target for the lineage-less models).
    prior_states: Dict[int, Any] = field(default_factory=dict)
    # Devices on which the routine has completed its last command.
    devices_done: Set[int] = field(default_factory=set)
    # Devices whose failure was detected after our last touch (PSV's
    # finish-point check).
    failed_after_last_touch: Set[int] = field(default_factory=set)
    rolled_back_commands: int = 0

    @property
    def last_index_by_device(self) -> Dict[int, int]:
        """Device id -> index of the last command on it; derived once
        per routine and shared by every run of that routine."""
        return self.routine.last_index_by_device

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

    def effective_final_writes(self) -> Dict[int, Any]:
        """Last *applied* write per device (skips excluded)."""
        values: Dict[int, Any] = {}
        for execution in self.executions:
            if execution.applied and execution.command.is_write:
                values[execution.command.device_id] = execution.command.value
        return values

    def touched_before(self, device_id: int) -> bool:
        """Has the routine applied/attempted any command on the device?"""
        return any(e.command.device_id == device_id
                   for e in self.executions)

    def in_touch_phase(self, device_id: int) -> bool:
        """True between the first and last command on ``device_id``."""
        if device_id in self.devices_done:
            return False
        return self.touched_before(device_id)


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
        # Encoded snapshot fragments (built only by snapshot_state, so a
        # non-durable hub never fills them): per run, in self.runs
        # order, its text and the key it was encoded under; per device
        # ``(list length, text of the ids without the brackets)``.
        self._run_keys: List[tuple] = []
        self._run_texts: List[str] = []
        self._access_fragments: Dict[int, tuple] = {}
        # The durable hub's WAL (an object with .observe(type, payload,
        # time)); None keeps journaling at zero cost.
        self.journal: Optional[Any] = None
        # User-specified undo handlers for irreversible commands (§2.2).
        from repro.core.undo import UndoRegistry
        self.undo_registry = UndoRegistry()

    def _journal(self, type_: str, **payload: Any) -> None:
        """Append one observation record to the hub's WAL, if any."""
        journal = self.journal
        if journal is not None:
            journal.observe(type_, payload, self.sim.now)

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
        if self.journal is not None:
            self._journal("routine-submitted", routine_id=run.routine_id,
                          name=routine.name, when=when)
        self.sim.call_at(when, self._arrive, run, label="arrive")
        return run

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
            # Prior state is captured at land time (the write is
            # ordered with every other write), making it the correct
            # rollback target for the lineage-less models.
            run.prior_states.setdefault(command.device_id, prior)
            execution.applied = True
            self._on_write_applied(run, execution)
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
        run.inflight_count -= 1
        self._on_execution_resolved(run, execution)
        if run.abort_pending and not run.done:
            # A parallel plan may still have sibling commands in flight;
            # the abort fires when the last one resolves (serial plans
            # are always at zero here, preserving the old behavior).
            if run.inflight_count == 0:
                reason, run.abort_pending = run.abort_pending, ""
                self.abort(run, reason)
            return
        if run.done:
            return
        on_done(run, execution)

    def _command_unreachable(self, run: RoutineRun,
                             execution: CommandExecution,
                             on_done: Callable) -> None:
        """Command could not reach its device: skip or abort (§2.2)."""
        execution.finished_at = self.sim.now
        execution.skipped = True
        run.inflight_count -= 1
        self._on_execution_resolved(run, execution)
        if run.abort_pending and not run.done:
            if run.inflight_count == 0:
                reason, run.abort_pending = run.abort_pending, ""
                self.abort(run, reason)
            return
        if run.done:
            return
        if execution.command.must:
            self.request_abort(run, f"must-command unreachable "
                                    f"(device {execution.command.device_id})")
        else:
            on_done(run, execution)

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
                          execution: CommandExecution) -> None:
        """Hook for subclasses (EV records applied values in the lineage)."""

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
        run.status = RoutineStatus.ABORTED
        run.abort_reason = reason
        run.finish_time = self.sim.now
        if self.journal is not None:
            self._journal("routine-aborted", routine_id=run.routine_id,
                          reason=reason)
        self._rollback(run)
        self._after_finish(run)

    def commit(self, run: RoutineRun) -> None:
        if run.done:
            return
        run.status = RoutineStatus.COMMITTED
        run.finish_time = self.sim.now
        if self.journal is not None:
            self._journal("routine-committed",
                          routine_id=run.routine_id)
        self._on_commit(run)
        self._after_finish(run)

    def _on_commit(self, run: RoutineRun) -> None:
        """Hook: EV updates committed states and compacts lineages."""

    def _after_finish(self, run: RoutineRun) -> None:
        for callback in self.on_routine_finished:
            callback(run)
        self._policy_after_finish(run)

    def _policy_after_finish(self, run: RoutineRun) -> None:
        """Hook: start queued routines, release locks, etc."""

    # -- rollback (§2.2, §4.3) -----------------------------------------------------

    def _rollback(self, run: RoutineRun) -> None:
        """Undo the aborted routine's applied writes.

        The default (lineage-less) policy restores each written device to
        the state captured just before the routine's first write to it.
        EV overrides targeting via the lineage table.
        """
        targets = self._rollback_targets(run)
        for device_id, target in targets.items():
            self._restore_device(run, device_id, target)

    def _rollback_targets(self, run: RoutineRun) -> Dict[int, Any]:
        targets: Dict[int, Any] = {}
        for execution in run.executions:
            command = execution.command
            if execution.applied and command.is_write:
                prior = run.prior_states[command.device_id]
                targets[command.device_id] = \
                    self.undo_registry.resolve(command, prior)
        return targets

    def resolve_undo(self, run: RoutineRun, device_id: int,
                     prior: Any) -> Any:
        """Undo target for a device via the routine's last write on it."""
        last_write: Optional[Command] = None
        for execution in run.executions:
            command = execution.command
            if execution.applied and command.is_write and \
                    command.device_id == device_id:
                last_write = command
        if last_write is None:
            return prior
        return self.undo_registry.resolve(last_write, prior)

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
        """Recoverable controller state for a hub checkpoint.

        Subclasses extend the dict with their model-specific structures
        (EV lineage entries, OCC commit log, lock-table holdings);
        values may be arbitrary objects — the checkpoint digests them
        via ``jsonify``.  A value may instead be a :class:`Canonical`:
        the already-encoded JSON text of that subtree, byte for byte
        what ``jsonify`` + ``json.dumps(sort_keys=True)`` would emit.
        The sections that grow with the home's history (``runs``,
        ``device_access_order``, finished ``plans``, OCC's commit log)
        are returned that way, joined from fragments that are encoded
        again only when the thing they describe changed.
        """
        return {
            "model": self.model_name,
            "believed_failed": sorted(self.believed_failed),
            "pending_reconcile": dict(self.pending_reconcile),
            "device_access_order": self._snapshot_access_order(),
            "runs": self._snapshot_runs(),
        }

    def _snapshot_runs(self) -> Canonical:
        """One object per routine ever submitted; a run's fragment is
        keyed by everything in it that can change."""
        keys, texts = self._run_keys, self._run_texts
        new = len(self.runs) - len(keys)
        keys.extend([None] * new)
        texts.extend([""] * new)
        for index, (run, cached) in enumerate(zip(self.runs, keys)):
            key = (run.status, run.next_index, len(run.executions),
                   run.inflight_count, len(run.devices_done))
            if key != cached:
                keys[index] = key
                texts[index] = encode_fragment({
                    "routine_id": run.routine_id,
                    "name": run.name,
                    "status": run.status.value,
                    "next_index": run.next_index,
                    "executions": len(run.executions),
                    "inflight": run.inflight_count,
                    "devices_done": sorted(run.devices_done),
                })
        return Canonical("[%s]" % ", ".join(texts))

    def _snapshot_access_order(self) -> Canonical:
        """Per-device id lists; :meth:`record_last_access` only ever
        appends, so a list that grew has its new tail encoded onto the
        cached text."""
        fragments = self._access_fragments
        members = []
        for device_id, order in self.device_access_order.items():
            count, text = fragments.get(device_id, (0, ""))
            if count != len(order):
                tail = encode_fragment(order[count:])[1:-1]
                text = f"{text}, {tail}" if text else tail
                fragments[device_id] = (len(order), text)
            members.append((str(device_id), f"[{text}]"))
        return canonical_object(members)

    def hub_recovery_action(self, run: RoutineRun) -> str:
        """Fate of a RUNNING routine under "policy"-mode hub recovery:
        ``"resume"`` or ``"abort"`` (see :attr:`hub_recovery_policy`)."""
        return self.hub_recovery_policy

    # -- bookkeeping ------------------------------------------------------------------

    def record_last_access(self, run: RoutineRun, device_id: int) -> None:
        """Called when a routine completes its last command on a device."""
        run.devices_done.add(device_id)
        order = self.device_access_order.get(device_id)
        if order is None:
            order = self.device_access_order[device_id] = []
        order.append(run.routine_id)

    def active_runs(self) -> List[RoutineRun]:
        return [run for run in self.runs if not run.done]

    def all_done(self) -> bool:
        return all(run.done for run in self.runs)

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
    device_write_logs: Dict[int, list]
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
            device_write_logs={d.device_id: list(d.write_log)
                               for d in registry},
            detection_events=list(controller.detection_events),
            device_access_order={k: list(v) for k, v in
                                 controller.device_access_order.items()},
        )
