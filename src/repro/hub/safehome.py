"""The SafeHome facade: the public API a smart-home user programs against.

Wires up the whole edge stack of Fig 11 — simulator, device registry,
driver, concurrency controller (chosen visibility model), failure
detector, routine bank and dispatcher — behind a small surface::

    home = SafeHome(visibility="ev", scheduler="timeline")
    window = home.add_device("window", "living-window")
    ac = home.add_device("ac", "living-ac")
    home.register_routine_spec({
        "routineName": "cooling",
        "commands": [
            {"device": "living-window", "action": "CLOSED",
             "durationSec": 2},
            {"device": "living-ac", "action": "ON", "durationSec": 2},
        ],
    })
    home.invoke("cooling")
    result = home.run()

With ``durability=True`` the hub journals every input and execution
decision to a write-ahead log and checkpoints its state periodically
(see :mod:`repro.hub.durability` and docs/durability.md), which makes
the hub itself crash-recoverable::

    home = SafeHome(visibility="ev", durability=True)
    ...
    home.crash(after_events=100)   # schedule a hub crash
    home.run()                     # dies mid-run
    home.recover()                 # checkpoint + WAL replay, verified
    home.run()                     # continues to completion

How a log becomes a live hub again — recovery, salvage, migration — is
one engine, :mod:`repro.hub.durability.replay`; the methods here only
delegate to it.
"""

import dataclasses
from typing import Any, Dict, List, Optional, Union

from repro.core.controller import (ControllerConfig, RoutineRun,
                                   RunResult)
from repro.core.routine import Routine
from repro.core.spec import parse_routine, routine_to_spec
from repro.core.visibility import VisibilityModel, make_controller
from repro.devices.device import Device
from repro.devices.driver import Driver
from repro.devices.failures import FailureInjector, FailurePlan
from repro.devices.network import LatencyModel
from repro.devices.registry import DeviceRegistry
from repro.errors import HubCrashedError, SafeHomeError
from repro.hub.durability import replay
from repro.hub.durability.recovery import (CrashPlan, DurabilityConfig,
                                           DurabilityManager, RecoveryReport)
from repro.hub.migration import MigrationReport
from repro.hub.failure_detector import FailureDetector
from repro.hub.log import FeedbackLog
from repro.hub.routine_bank import RoutineBank
from repro.metrics.collector import MetricsReport, analyze
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.base import Workload, attach_streams


def _durability_config(arg) -> Optional[DurabilityConfig]:
    """Normalise a ``durability=`` argument (bool | config | None)."""
    if not arg:
        return None
    return arg if isinstance(arg, DurabilityConfig) else DurabilityConfig()


class SafeHome:
    """An edge hub running one visibility model over simulated devices."""

    def __init__(self,
                 visibility: Union[str, VisibilityModel] = "ev",
                 scheduler: str = "timeline",
                 execution: Optional[str] = None,
                 config: Optional[ControllerConfig] = None,
                 latency: Optional[LatencyModel] = None,
                 seed: int = 0,
                 detector_ping_period_s: float = 1.0,
                 durability: Union[bool, DurabilityConfig, None] = None,
                 wal_dir: Optional[str] = None
                 ) -> None:
        # This home's own config (the caller's may build other homes)
        # with the scheduler and the plan strategy applied: "serial"
        # (bit-compatible command chain) or "parallel" (command-DAG
        # dispatch; see docs/execution-model.md).
        self.config = dataclasses.replace(
            config or ControllerConfig(), scheduler=scheduler)
        if execution is not None:
            self.config.execution = execution
        # Everything else the stack is built from, kept so recovery can
        # rebuild an identical stack (the latency model is reused by
        # reference: a pure parameter holder).
        self._ctor: Dict[str, Any] = {
            "visibility": visibility,
            "scheduler": scheduler,
            "execution": execution,
            "latency": latency,
            "seed": seed,
            "detector_ping_period_s": detector_ping_period_s,
        }
        self.durability: Optional[DurabilityManager] = None
        self._crashed = False
        self._pending_crash: Optional[CrashPlan] = None
        self.recoveries: List[RecoveryReport] = []
        self.migrations: List[MigrationReport] = []
        #: On-disk WAL directory (docs/durability.md): when set, every
        #: materialized record streams into segmented CRC-framed files.
        self._wal_dir = wal_dir
        #: Absolute simulator-event bound for salvage replay (threaded
        #: through _run_core so bounded replay stops at a checkpoint
        #: boundary instead of the crash point).
        self._replay_stop_events: Optional[int] = None
        self._build_stack()
        config = _durability_config(durability or wal_dir is not None)
        if config is not None:
            self._attach_durability(config)

    def _build_stack(self) -> None:
        """(Re)build the full edge stack from the stored constructor
        parameters.  Called at construction and again by recovery."""
        ctor = self._ctor
        self.sim = Simulator()
        self.registry = DeviceRegistry()
        self.streams = RandomStreams(seed=ctor["seed"])
        self.driver = Driver(
            sim=self.sim, registry=self.registry,
            latency=ctor["latency"] or LatencyModel(), streams=self.streams)
        self._build_policy()

    def _build_policy(self) -> None:
        """Build the policy layers on top of the current substrate
        (sim / registry / streams / driver).  Split out of
        :meth:`_build_stack` so :meth:`reset` can reuse the substrate
        objects in place while rebuilding the per-home state."""
        ctor = self._ctor
        self.controller = make_controller(
            ctor["visibility"], self.sim, self.registry, self.driver,
            self.config)
        self.detector = FailureDetector(
            self.sim, self.registry, self.driver, self.controller,
            ping_period_s=ctor["detector_ping_period_s"])
        self.bank = RoutineBank()
        self.injector = FailureInjector(self.sim, self.registry)
        self.feedback = FeedbackLog(self.controller)
        self._detector_started = False
        self._initial: Optional[Dict[int, Any]] = None
        self._last_result: Optional[RunResult] = None

    def reset(self, seed: Optional[int] = None,
              durability: Union[bool, DurabilityConfig, None] = None
              ) -> "SafeHome":
        """Re-seed this hub and reuse it for a fresh home.

        Equivalent to constructing ``SafeHome(**same_params, seed=seed,
        durability=durability)`` — the reset-vs-fresh property test in
        ``tests/test_fleet.py`` pins byte-identical reports across all
        visibility models — but reuses the simulator, device registry,
        RNG-stream family and driver objects in place instead of
        reallocating them, which is what lets the fleet's
        :class:`~repro.fleet.worker.HomeFactory` amortize construction
        across thousands of homes per worker.  A home with an on-disk
        WAL is closed cleanly first (:meth:`close_wal`), so the
        discarded incarnation's log ends with a final seal.
        """
        self.close_wal()
        if seed is not None:
            self._ctor["seed"] = seed
        self.sim.reset()
        self.registry.clear()
        self.streams.reseed(self._ctor["seed"])
        self.driver.reset()
        self.durability = None
        self._crashed = False
        self._pending_crash = None
        self.recoveries = []
        self.migrations = []
        self._build_policy()
        config = _durability_config(durability)
        if config is not None:
            self._attach_durability(config)
        return self

    # -- durability plumbing ---------------------------------------------------

    def _attach_durability(self, config: DurabilityConfig,
                           staged: bool = False) -> None:
        ctor = self._ctor
        self.durability = DurabilityManager(
            config,
            capture_state=self._capture_state,
            events=lambda: self.sim.events_processed,
            now=lambda: self.sim.now)
        self.controller.journal = self.durability
        self.sim.add_post_event_hook(self.durability.on_event_processed)
        visibility = ctor["visibility"]
        if isinstance(visibility, VisibilityModel):
            visibility = visibility.value
        if self._wal_dir is not None:
            # ``staged``: see replay.staged_rebuild.
            from repro.hub.durability.storage import SegmentedWalWriter
            self.durability.attach_storage(SegmentedWalWriter(
                self._wal_dir, home=f"{visibility}:{ctor['seed']}",
                staging=staged))
        self.durability.record_input("home-created", {
            "visibility": visibility,
            "scheduler": ctor["scheduler"],
            "execution": ctor["execution"],
            "seed": ctor["seed"],
            "detector_ping_period_s": ctor["detector_ping_period_s"],
            "checkpoint_every": config.checkpoint_every,
        })

    def _capture_state(self) -> Dict[str, Any]:
        """Checkpoint payload: every stateful layer's snapshot."""
        return {
            "time": self.sim.now,
            "devices": self.registry.snapshot_full(),
            "controller": self.controller.snapshot_state(),
        }

    def _record_input(self, type_: str, payload: Dict[str, Any]) -> None:
        if self.durability is not None:
            self.durability.record_input(type_, payload)

    def _ensure_alive(self) -> None:
        if self._crashed:
            raise HubCrashedError(
                "the hub has crashed; call recover() first")

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def wal(self):
        """The write-ahead log, when durability is enabled."""
        return self.durability.wal if self.durability is not None else None

    @property
    def wal_dir(self) -> Optional[str]:
        """The on-disk WAL directory, when one was given."""
        return self._wal_dir

    def close_wal(self) -> None:
        """Cleanly shut down the on-disk WAL (no-op without one).

        Folds the observation buffer and appends a *final seal* (the
        clean-shutdown marker, carrying the closing observation seal):
        ``repro fsck`` reports a log without one as a crash image
        (``clean_close: false``).  Appending to the hub after this
        raises — a closed log must not grow silently.
        """
        if self.durability is None or self.durability.storage is None:
            return
        self.durability.storage.close(
            seal_events=self.sim.events_processed,
            seal_time=self.sim.now,
            seal_index=len(self.durability.checkpoints),
            observed=self.durability.wal.observed())

    # -- setup -----------------------------------------------------------------

    def add_device(self, type_name: str, name: str = "") -> Device:
        """Add one catalog device to the home."""
        self._ensure_alive()
        device = self.registry.create(type_name, name)
        self._record_input("device-added", {"type": type_name,
                                            "name": device.name})
        return device

    def add_devices(self, type_name: str, count: int,
                    prefix: str = "") -> List[Device]:
        prefix = prefix or type_name
        return [self.add_device(type_name, f"{prefix}-{i}")
                for i in range(count)]

    def register_routine(self, routine: Routine,
                         replace: bool = False) -> None:
        self._ensure_alive()
        self.bank.register(routine, replace=replace)
        if self.durability is not None:
            self._record_input("routine-registered", {
                "spec": routine_to_spec(routine, self.registry),
                "replace": replace})

    def register_routine_spec(self, spec: Union[str, Dict[str, Any]],
                              replace: bool = False) -> Routine:
        """Register a routine from its JSON spec (Fig 10 format)."""
        routine = parse_routine(spec, self.registry)
        self.register_routine(routine, replace=replace)
        return routine

    def plan_failure(self, device_name: str, fail_at: float,
                     restart_at: Optional[float] = None) -> None:
        """Script a fail-stop failure (and optional restart)."""
        self._ensure_alive()
        device = self.registry.by_name(device_name)
        self._plan_failure(FailurePlan(device.device_id, fail_at,
                                       restart_at))

    def _plan_failure(self, plan: FailurePlan) -> None:
        self.injector.add(plan)
        self._record_input("failure-planned", {
            "device_id": plan.device_id, "fail_at": plan.fail_at,
            "restart_at": plan.restart_at})

    def load_workload(self, workload: Workload) -> None:
        """Populate this home from a :class:`Workload` in one call.

        Creates the workload's devices, scripts its failure plans,
        submits its open-loop arrivals and wires its closed-loop streams.
        The one way a workload becomes a running home: the experiment
        runner (figures, ablations, ``repro scenario``, the hunter) and
        the fleet engine both come through here.
        """
        self._ensure_alive()
        for type_name, name in workload.devices:
            self.add_device(type_name, name)
        for plan in workload.failure_plans:
            self._plan_failure(plan)
        self._initial = self.registry.snapshot()
        for routine, at in workload.arrivals:
            self._submit_recorded(routine, at)
        self._attach_streams_recorded(workload.streams)

    def _submit_recorded(self, routine: Routine,
                         when: Optional[float]) -> RoutineRun:
        when = self.sim.now if when is None else when
        if self.durability is not None:
            # Payload construction (spec'ing the routine) is deferred
            # behind the durability check: non-durable hubs submit
            # thousands of fleet routines and must not pay for WAL
            # payloads that would be dropped.
            self._record_input("invoked", {
                "spec": routine_to_spec(routine, self.registry),
                "when": when})
        return self.controller.submit(routine, when=when)

    def _attach_streams_recorded(self,
                                 streams: List[List[Routine]]) -> None:
        if not any(streams):
            return
        if self.durability is not None:
            self._record_input("streams-attached", {
                "streams": [[routine_to_spec(routine, self.registry)
                             for routine in stream]
                            for stream in streams]})
        attach_streams(self.controller, streams)

    # -- dispatch (user or trigger initiation) -------------------------------------

    def invoke(self, routine_or_name: Union[str, Routine],
               at: Optional[float] = None) -> RoutineRun:
        """Invoke a routine now or at an absolute virtual time."""
        self._ensure_alive()
        if isinstance(routine_or_name, Routine):
            routine = routine_or_name
        else:
            routine = self.bank.get(routine_or_name)
        return self._submit_recorded(routine, at)

    def invoke_repeating(self, name: str, start_at: float, period: float,
                         count: int) -> List[RoutineRun]:
        """Timed trigger: invoke ``name`` every ``period`` seconds."""
        return [self.invoke(name, at=start_at + i * period)
                for i in range(count)]

    def cancel(self, run: RoutineRun, at: Optional[float] = None) -> None:
        """User-initiated cancellation of an in-flight routine.

        The routine aborts cleanly: executed commands are rolled back
        per the active visibility model's rules and the user gets
        feedback, exactly as for a failure-driven abort (§2.2).
        """
        self._ensure_alive()
        self._record_input("cancelled", {
            "routine_id": run.routine_id, "at": at})
        self._request_cancel(run, at)

    def _request_cancel(self, run: RoutineRun, at: Optional[float]) -> None:
        """The cancellation itself, shared with WAL replay."""
        if at is None:
            self.controller.request_abort(run, "cancelled by user")
        else:
            self.sim.call_at(at, self.controller.request_abort, run,
                             "cancelled by user")

    # -- execution -------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            detector: Optional[bool] = None,
            max_events: Optional[int] = None) -> RunResult:
        """Run the simulation to completion and return the results.

        If a crash is scheduled (:meth:`crash`) the run stops at the
        crash point instead, the hub is marked crashed and the returned
        :class:`RunResult` is the post-mortem partial state.

        Args:
            until: optional virtual-time bound.
            detector: force the failure detector on/off; by default it
                runs only when failures are scripted.
            max_events: safety valve against runaway simulations.
        """
        self._ensure_alive()
        self._record_input("run", {"until": until, "detector": detector,
                                   "max_events": max_events})
        return self._run_core(until=until, detector=detector,
                              max_events=max_events)

    def _run_core(self, until: Optional[float] = None,
                  detector: Optional[bool] = None,
                  max_events: Optional[int] = None) -> RunResult:
        """The run body, shared by live execution and recovery replay
        (replay records the input itself, so this never journals)."""
        self._prepare_run(detector)
        crash = self._pending_crash
        crashed = False
        # Salvage replay caps every run at the last-good checkpoint's
        # event boundary (an absolute, cumulative bound — the same
        # units as CrashPlan.after_events).
        stop = self._replay_stop_events
        if crash is None:
            self.sim.run(until=until, max_events=max_events,
                         stop_after_events=stop)
        elif crash.at is not None and \
                (until is None or until >= crash.at):
            # A crash only fires while the hub is active: if the queue
            # drains first, the run completes at its natural end (the
            # clock does not advance to the crash time) and the crash
            # stays pending for any later activity.
            self.sim.run(until=crash.at, max_events=max_events,
                         advance_clock=False, stop_after_events=stop)
            crashed = self.sim.now >= crash.at
            if not crashed and until is not None and until > self.sim.now:
                self.sim.run(until=until, max_events=max_events,
                             stop_after_events=stop)
        elif crash.at is not None:
            self.sim.run(until=until, max_events=max_events,
                         stop_after_events=stop)
        else:
            bound = crash.after_events if stop is None \
                else min(crash.after_events, stop)
            self.sim.run(until=until, max_events=max_events,
                         stop_after_events=bound)
            crashed = self.sim.events_processed >= crash.after_events

        if crashed:
            # The hub dies here: pending simulator events (in-flight
            # commands, timers) are lost with the process; only the WAL
            # and checkpoints survive.
            self._pending_crash = None
            self._crashed = True
            if self.durability is not None:
                self.durability.mark_crash(crash.to_payload())
            self.feedback.hub_crashed(self.sim.now)
        self._last_result = RunResult.from_controller(self.controller)
        return self._last_result

    # -- service mode (docs/serving.md) -------------------------------------------------

    def pump(self, until: Optional[float] = None,
             max_events: Optional[int] = None) -> int:
        """Advance the simulation incrementally for service mode.

        A lightweight slice of :meth:`run` for long-lived serving: it
        arms scripted failures, starts the detector when needed and
        takes the initial snapshot on first use, but builds no
        :class:`RunResult` (that is deferred to
        :meth:`finalize_service`, so a serve loop calling pump
        thousands of times stays O(events)).  Returns the number of
        events processed.  Durability journals whole ``run()`` calls,
        not incremental slices, so pumping a durable hub is refused.
        """
        self.service_prepare()
        before = self.sim.events_processed
        self.sim.run(until=until, max_events=max_events)
        return self.sim.events_processed - before

    def service_prepare(self) -> None:
        """The per-slice preamble of :meth:`pump`, callable on its own
        (the serve loop runs it before handing the simulator to a
        pacing driver): start the detector if failures are scripted,
        take the initial snapshot once, arm any newly scripted plans.
        Idempotent and cheap when nothing changed.
        """
        self._ensure_alive()
        if self.durability is not None:
            raise SafeHomeError(
                "pump() does not journal; serve non-durable homes "
                "(durability and service mode are mutually exclusive)")
        self._prepare_run()

    def _prepare_run(self, detector: Optional[bool] = None) -> None:
        """Start the detector (forced on/off, by default only when
        failures are scripted), take the initial snapshot once, arm
        newly scripted failure plans."""
        start_detector = detector if detector is not None \
            else bool(self.injector.plans)
        if start_detector and not self._detector_started:
            self.detector.start()
            self._detector_started = True
        # Implicit detection (command timeouts) is always wired: the
        # detector's constructor set driver.on_timeout at build time.
        if self._initial is None:
            self._initial = self.registry.snapshot()
        self.injector.arm()

    def finalize_service(self) -> RunResult:
        """Materialize the :class:`RunResult` of a pumped (served) run.

        The service-mode counterpart of the tail of :meth:`run`; after
        this, :meth:`report` works exactly as it does for batch runs.
        """
        self._last_result = RunResult.from_controller(self.controller)
        return self._last_result

    # -- crash / recovery (docs/durability.md) ------------------------------------------

    def crash(self, at: Optional[float] = None,
              after_events: Optional[int] = None) -> None:
        """Schedule a hub crash at a virtual time or total event index.

        The crash fires during the next :meth:`run` when the simulation
        reaches the point; requires durability (there is nothing to
        recover from otherwise).
        """
        self._ensure_alive()
        if self.durability is None:
            raise SafeHomeError(
                "crash/recovery needs a durable hub: construct with "
                "SafeHome(..., durability=True)")
        if self._pending_crash is not None:
            raise SafeHomeError("a crash is already scheduled")
        plan = CrashPlan(at=at, after_events=after_events)
        self._pending_crash = plan
        self._record_input("crash-scheduled", plan.to_payload())

    def cancel_crash(self) -> None:
        """Withdraw a scheduled-but-unfired hub crash.

        Journaled as an input so replay (recovery or live migration)
        drops the pending plan at the same point; a no-op when nothing
        is scheduled.
        """
        self._ensure_alive()
        if self._pending_crash is None:
            return
        self._pending_crash = None
        self._record_input("crash-cancelled", {})

    def recover(self, mode: Optional[str] = None) -> RecoveryReport:
        """Rebuild the hub from its checkpoint + write-ahead log.

        Deterministic replay: a fresh stack re-applies the WAL's input
        records and re-executes to the exact crash boundary; the
        regenerated observation seals and checkpoint digests are
        verified against the log (:class:`~repro.errors.RecoveryError`
        on divergence).  ``mode`` is ``"replay"`` (resume everything
        exactly), ``"policy"`` (each visibility model decides the fate
        of routines caught mid-execution) or ``"salvage"`` (bounded
        replay to the last good checkpoint for damaged logs — see
        docs/durability.md's salvage decision tree).
        """
        return replay.recover(self, mode)

    def salvage_records(self, records, bounded: bool = True,
                        end=None) -> RecoveryReport:
        """Salvage another incarnation's (possibly damaged) WAL records
        into this freshly built durable hub.

        The entry point ``repro fsck --salvage`` uses after
        :func:`~repro.hub.durability.storage.scan_wal_dir` chopped a
        corrupt on-disk log down to its good prefix: bounded replay to
        the last good checkpoint, per-model recovery policy for
        routines caught in flight, checkpoint digests and observation
        seals verified — a divergence raises
        :class:`~repro.errors.RecoveryError`, never a silent pass.

        ``bounded=False`` replays *all* good inputs to their natural
        end instead of cutting at the last checkpoint — full replay
        verification for clean or merely tail-torn logs; ``end`` is a
        cleanly closed log's final seal, which replay must then end on.
        """
        return replay.salvage(self, records, bounded=bounded, end=end)

    # -- live migration (docs/control-plane.md) -----------------------------------------

    def migrate(self, visibility: Union[str, VisibilityModel]
                ) -> MigrationReport:
        """Flip this home's visibility model live, at a checkpoint
        boundary, without discarding its history.

        Forces a checkpoint (the digest-pinned boundary), rebuilds the
        stack under the *target* model and deterministically replays the
        WAL's input records through the new policy — the same machinery
        as :meth:`recover`, pointed at a different controller.  Because
        inputs + seed are a complete recipe, the migrated hub's state
        and subsequent behavior are identical to a hub that ran under
        the target model from the start (pinned by the migration grid
        test).  A crash plan that fires during replay where the source
        model never hit it is transparently resumed and journaled.

        On failure the hub is left *crashed* with the pre-migration WAL
        intact for post-mortem and :class:`~repro.errors.MigrationError`
        is raised; a fleet supervisor treats the home as failed.
        """
        return replay.migrate(self, visibility)

    # -- inspection ---------------------------------------------------------------------

    @property
    def last_result(self) -> Optional[RunResult]:
        """The :class:`RunResult` of the most recent :meth:`run`."""
        return self._last_result

    @property
    def initial(self) -> Optional[Dict[int, Any]]:
        """The initial device snapshot anchoring congruence checks
        (taken at workload load or first run/pump; ``None`` before)."""
        return self._initial

    def report(self, check_final: bool = True,
               exhaustive_limit: int = 7) -> MetricsReport:
        """Analyze the last run: every §7.1 metric for this home.

        Requires a prior :meth:`run`; the initial device snapshot taken
        at load/run time anchors the final-incongruence check.
        """
        if self._last_result is None or self._initial is None:
            raise SafeHomeError("no completed run to report on; "
                                "call run() first")
        return analyze(self._last_result, self._initial,
                       check_final=check_final,
                       exhaustive_limit=exhaustive_limit)

    def state_of(self, device_name: str) -> Any:
        return self.registry.by_name(device_name).state

    def snapshot(self) -> Dict[int, Any]:
        return self.registry.snapshot()
