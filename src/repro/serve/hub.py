"""The long-running front door: ``ServeHub``.

A served deployment is one or more live :class:`SafeHome` instances
fielding routine submissions from many concurrent tenants.  Clients
(threads, or the inline closed-loop generator) call :meth:`submit`,
which resolves the routine against the tenant's home and touches only
the tenant's bounded admission queue; a single
serve loop — the only code that ever drives the homes — admits
queued requests with weighted fair dequeue and paces each home's
virtual clock through a :class:`~repro.serve.pacing.RealTimeDriver`,
whose slices (:meth:`SafeHome.pump`) are ordinary journaled ``run`` inputs.

Determinism: with ``speedup=inf`` and the loop run inline
(:meth:`serve_until_idle`), submissions only ever happen between pump
steps — from the caller before serving or from completion hooks inside
the loop — so admission order is a pure function of the seed and the
request layer adds no nondeterminism (the byte-identical-reports gate
in ``tests/test_serve_soak.py`` and CI pins this).

Lifecycle::

    hub = ServeHub({"home-0": home}, ServeConfig(speedup=100.0))
    hub.add_tenant("alice", weight=2)
    hub.start()                      # background serve loop
    ticket = hub.submit("alice", "scene-warm")
    ticket.done.wait()
    hub.shutdown(drain=True)         # finish in-flight, reject new
    report = hub.final_report()
"""

import json
import math
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.controller import RoutineStatus, RunResult
from repro.core.routine import Routine
from repro.core.spec import parse_routine
from repro.errors import (AdmissionRejected, DeviceError, HubCrashedError,
                          RoutineSpecError, ServeError)
from repro.hub.safehome import SafeHome
from repro.metrics.collector import MetricsReport
from repro.serve.admission import AdmissionControl
from repro.serve.pacing import RealTimeDriver
from repro.serve.slo import LatencyTracker


@dataclass
class ServeConfig:
    """Knobs for one served deployment (see docs/serving.md)."""

    speedup: float = math.inf       # virtual s per wall s; inf = virtual-paced
    queue_capacity: int = 64        # per-tenant admission queue bound
    retry_after_s: float = 0.05     # base backoff hint per queued request
    admit_batch: int = 16           # admissions per loop iteration
    window_s: float = 60.0          # rolling SLO window (virtual seconds)
    window_buckets: int = 6
    resolution: float = 1e-3        # latency histogram bin width (s)
    poll_s: float = 0.002           # idle sleep bound (real-time mode)
    max_total_events: Optional[int] = None   # per-home livelock valve


def _resolve(home: SafeHome,
             routine: Union[str, Dict[str, Any], Routine]) -> Routine:
    """The routine a submission names: a bank entry (shared, never
    copied), a spec parsed against the home's registry, or itself."""
    if isinstance(routine, Routine):
        return routine
    if isinstance(routine, str):
        return home.bank.get(routine)
    try:
        return parse_routine(routine, home.registry)
    except DeviceError as error:
        raise RoutineSpecError(str(error)) from error


class Ticket:
    """One submission's journey through the served hub."""

    __slots__ = ("seq", "tenant", "routine", "home", "status",
                 "enqueued_v", "admitted_v", "finished_v", "routine_id",
                 "done")

    def __init__(self, seq: int, tenant: str, routine: Routine,
                 home: str, enqueued_v: float) -> None:
        self.seq = seq
        self.tenant = tenant
        self.routine = routine
        self.home = home
        self.status = "queued"      # queued|admitted|committed|aborted|dropped
        self.enqueued_v = enqueued_v
        self.admitted_v: Optional[float] = None
        self.finished_v: Optional[float] = None
        self.routine_id: Optional[int] = None
        self.done = threading.Event()

    @property
    def latency_v(self) -> Optional[float]:
        """Virtual enqueue → finish (queue wait + execution), the SLO
        latency; ``None`` until the routine reaches a terminal state."""
        if self.finished_v is None:
            return None
        return self.finished_v - self.enqueued_v


class ServeHub:
    """A multi-tenant service front end over live SafeHome instances."""

    def __init__(self,
                 homes: Union[SafeHome, Dict[str, SafeHome]],
                 config: Optional[ServeConfig] = None) -> None:
        if isinstance(homes, SafeHome):
            homes = {"home-0": homes}
        if not homes:
            raise ServeError("a served hub needs at least one home")
        self.config = config or ServeConfig()
        self.homes: Dict[str, SafeHome] = dict(homes)
        self._home_order = list(self.homes)
        self.drivers: Dict[str, RealTimeDriver] = {
            name: RealTimeDriver(home, self.config.speedup,
                                 poll_s=self.config.poll_s)
            for name, home in self.homes.items()}
        self.admission = AdmissionControl(
            capacity=self.config.queue_capacity,
            retry_after_s=self.config.retry_after_s)
        self.latency = LatencyTracker(
            window_s=self.config.window_s,
            buckets=self.config.window_buckets,
            resolution=self.config.resolution)
        # One lock guards queues, tickets, counters and state; the
        # serve loop holds it only for short bookkeeping sections, so
        # submit() from client threads never blocks on a sim pump.
        self._lock = threading.RLock()
        self._state = "new"           # new|serving|draining|stopped
        self._seq = 0
        self._live: Dict[tuple, Ticket] = {}     # (home, routine_id) -> ticket
        self._next_home = 0
        self._thread: Optional[threading.Thread] = None
        self._results: Optional[Dict[str, RunResult]] = None
        self._error: Optional[HubCrashedError] = None  # the loop's, re-raised
        # Fired (inside the serve loop) whenever a ticket reaches a
        # terminal state — the closed-loop generator's resubmit hook.
        self.on_ticket_done: List[Callable[[Ticket], None]] = []
        for name, home in self.homes.items():
            home.controller.on_routine_finished.append(
                self._finished_callback(name))

    # -- tenants ---------------------------------------------------------------

    def add_tenant(self, name: str, weight: int = 1,
                   home: Optional[str] = None) -> None:
        """Register a tenant; ``home`` defaults to round-robin routing
        across the hub's homes at registration time."""
        with self._lock:
            if home is None:
                home = self._home_order[self._next_home
                                        % len(self._home_order)]
                self._next_home += 1
            elif home not in self.homes:
                raise ServeError(f"unknown home {home!r}; "
                                 f"pick from {self._home_order}")
            self.admission.register(name, weight=weight, home=home)

    # -- submission (any thread) ----------------------------------------------

    def submit(self, tenant: str,
               routine: Union[str, Dict[str, Any], Routine]) -> Ticket:
        """Submit one routine invocation for ``tenant``.

        ``routine`` is a bank name, a Fig-10 JSON spec dict, or a
        :class:`Routine`.  It is resolved against the tenant's home
        here, so the serve loop only ever admits runnable routines: an
        unknown name or a malformed spec raises
        :class:`~repro.errors.RoutineSpecError` with nothing enqueued.
        Returns a :class:`Ticket` whose ``done`` event fires at
        commit/abort; raises :class:`~repro.errors.AdmissionRejected`
        when the tenant's queue is full (``retry_after_s`` backoff
        hint) or the hub is draining (``retry_after_s is None``).
        """
        with self._lock:
            if self._state in ("draining", "stopped"):
                raise AdmissionRejected(
                    f"hub is {self._state}; not accepting new routines",
                    tenant=tenant, retry_after_s=None)
            state = self.admission.tenant(tenant)
            home = self.homes[state.home]
            ticket = Ticket(self._seq, tenant, _resolve(home, routine),
                            state.home, enqueued_v=home.sim.now)
            self.admission.offer(tenant, ticket)   # raises when full
            self._seq += 1
            return ticket

    # -- completion plumbing (serve-loop thread) -------------------------------

    def _finished_callback(self, home_name: str):
        def on_finished(run) -> None:
            ticket = self._live.pop((home_name, run.routine_id), None)
            if ticket is None:
                return               # submitted outside the serve layer
            committed = run.status is RoutineStatus.COMMITTED
            with self._lock:
                ticket.finished_v = run.finish_time
                ticket.status = "committed" if committed else "aborted"
                self.admission.record_finish(ticket.tenant, committed)
                self.latency.add(ticket.finished_v, ticket.latency_v)
            for hook in self.on_ticket_done:
                hook(ticket)
            ticket.done.set()
        return on_finished

    # -- the serve loop --------------------------------------------------------

    def _admit_batch(self) -> int:
        with self._lock:
            batch = self.admission.drain(self.config.admit_batch)
        for ticket in batch:
            home = self.homes[ticket.home]
            run = home.invoke(ticket.routine)
            ticket.routine_id = run.routine_id
            ticket.admitted_v = home.sim.now
            ticket.status = "admitted"
            self._live[(ticket.home, run.routine_id)] = ticket
        return len(batch)

    def _pump_all(self) -> int:
        events = 0
        for name in self._home_order:
            events += self.drivers[name].pump(
                max_events=self.config.max_total_events)
            if self.homes[name].crashed:     # queued tickets stay queued
                raise HubCrashedError(f"served home {name!r} crashed")
        return events

    def _idle(self) -> bool:
        with self._lock:
            return self.admission.total_depth() == 0 \
                and not self._live

    def serve_until_idle(self) -> None:
        """Run the serve loop inline until all accepted work is done.

        This is the deterministic entry point: with ``speedup=inf``
        the whole service — admission, execution, completion hooks and
        closed-loop resubmission — runs single-threaded in virtual
        time.  With a finite ``speedup`` it paces against wall clock
        but still returns once every queue and home is idle.
        """
        self._enter_serving()
        while True:
            admitted = self._admit_batch()
            events = self._pump_all()
            if admitted or events:
                continue
            if self._idle():
                break
            with self._lock:
                depth = self.admission.total_depth()
            if depth:
                continue             # admit the next batch
            # Nothing queued, nothing fired, but routines are live: in
            # real-time mode the next event is simply not due yet.
            if not self.drivers[self._home_order[0]].virtual_paced:
                continue             # pump() sleeps; keep pacing
            raise ServeError(
                f"serve loop stalled with {len(self._live)} live "
                "routine(s) and no pending events (deadlock?)")
        with self._lock:
            if self._state == "serving":
                self._state = "draining"
            self._state = "stopped"

    def _serve_loop(self) -> None:
        try:
            while True:
                with self._lock:
                    state = self._state
                if state == "stopped":
                    break
                admitted = self._admit_batch()
                events = self._pump_all()
                if state == "draining" and not admitted and not events \
                        and self._idle():
                    break
                if not admitted and not events \
                        and self.drivers[self._home_order[0]].virtual_paced:
                    # Virtual-paced + threaded: nothing to do until a
                    # client enqueues; don't spin.
                    threading.Event().wait(self.config.poll_s)
        except HubCrashedError as error:
            self._error = error          # shutdown() re-raises it
        with self._lock:
            self._state = "stopped"

    def _enter_serving(self) -> None:
        # A crashed home cannot admit: serving on would drain tickets
        # that its invoke() then refuses, stranding them outside every
        # queue.  Refuse before anything is drained.
        for name in self._home_order:
            if self.homes[name].crashed:
                raise HubCrashedError(f"served home {name!r} crashed")
        with self._lock:
            if self._state == "stopped":
                raise ServeError("hub already stopped")
            if self._state == "new":
                self._state = "serving"
                for driver in self.drivers.values():
                    if not driver.virtual_paced:
                        driver.start()

    def start(self) -> None:
        """Run the serve loop in a background thread."""
        if self._thread is not None:
            raise ServeError("hub already started")
        self._enter_serving()
        self._thread = threading.Thread(target=self._serve_loop,
                                        name="repro-serve", daemon=True)
        self._thread.start()

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop serving.

        ``drain=True`` (graceful): new submissions are rejected
        immediately, everything already queued or in flight runs to a
        terminal state, then the loop exits.  ``drain=False`` (hard):
        the loop stops at the next iteration and queued tickets are
        marked ``dropped`` (their ``done`` events fire so no waiter
        hangs).  A home crash that stopped the loop is re-raised here.
        """
        with self._lock:
            if self._state == "stopped" and self._thread is None:
                return
            self._state = "draining" if drain else "stopped"
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise ServeError("serve loop did not stop in time")
            self._thread = None
        with self._lock:
            self._state = "stopped"
            if not drain:
                for ticket in self.admission.drop_all():
                    ticket.status = "dropped"
                    ticket.done.set()
        if self._error is not None:
            raise self._error

    # -- results / metrics -----------------------------------------------------

    def results(self) -> Dict[str, RunResult]:
        """Each drained home's ``run()`` to its virtual now, once."""
        with self._lock:
            if self._state != "stopped":
                raise ServeError("shut the hub down before finalizing")
            if self._results is None:
                self._results = {name: home.run(until=home.sim.now)
                                 for name, home in self.homes.items()}
            return self._results

    def reports(self, check_final: bool = False
                ) -> Dict[str, MetricsReport]:
        """Per-home §7.1 metrics reports over the served run."""
        self.results()
        return {name: self.homes[name].report(check_final=check_final)
                for name in self._home_order}

    def oracle_reports(self) -> Dict[str, Any]:
        """Per-home congruence-oracle reports (docs/scenario-synthesis.md)."""
        from repro.metrics.oracle import check_run

        results = self.results()
        out = {}
        for name in self._home_order:
            home = self.homes[name]
            out[name] = check_run(results[name], home.initial)
        return out

    def status(self, include_wall: bool = False) -> Dict[str, Any]:
        """The streaming SLO surface (``/status``, ``--json-status``).

        Deterministic for a seeded virtual-paced run; ``include_wall``
        adds the explicitly wall-clock-dependent gauges (elapsed time,
        pacing lag) under a ``"wall"`` key.
        """
        with self._lock:
            now_by_home = {name: self.homes[name].sim.now
                           for name in self._home_order}
            max_now = max(now_by_home.values())
            tenants = {}
            for state in self.admission.tenants():
                finished = state.committed + state.aborted
                tenants[state.name] = {
                    "home": state.home,
                    "weight": state.weight,
                    "depth": state.depth,
                    "max_depth": state.max_depth,
                    "saturation": round(
                        state.depth / self.admission.capacity, 6),
                    "offered": state.offered,
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                    "dropped": state.dropped,
                    "committed": state.committed,
                    "aborted": state.aborted,
                    "abort_rate": round(state.aborted / finished, 6)
                    if finished else 0.0,
                }
            payload: Dict[str, Any] = {
                "state": self._state,
                "config": {
                    "speedup": None if math.isinf(self.config.speedup)
                    else self.config.speedup,
                    "queue_capacity": self.config.queue_capacity,
                    "window_s": self.config.window_s,
                },
                "homes": {
                    name: {
                        "virtual_now": round(now_by_home[name], 6),
                        "pending_events": self.homes[name].sim.pending_events,
                        "events_processed":
                            self.homes[name].sim.events_processed,
                    } for name in self._home_order},
                "queue": {
                    "depth": self.admission.total_depth(),
                    "saturation": round(self.admission.saturation(), 6),
                },
                "tenants": tenants,
                "latency": self.latency.snapshot(max_now),
                "in_flight": len(self._live),
            }
            if include_wall:
                payload["wall"] = {
                    "elapsed_s": round(max(d.wall_elapsed()
                                           for d in self.drivers.values()), 3),
                    "behind_s": round(max(d.behind_s()
                                          for d in self.drivers.values()), 3),
                    "clock_regressions": sum(d.clock_regressions
                                             for d in self.drivers.values()),
                }
            return payload

    def status_json(self, include_wall: bool = False) -> str:
        return json.dumps(self.status(include_wall=include_wall),
                          sort_keys=True, indent=2)

    def final_report(self) -> Dict[str, Any]:
        """Deterministic end-of-run summary (the determinism-gate
        payload): per-home metrics rows, per-tenant counters and the
        cumulative latency quantiles — no wall-clock fields."""
        reports = self.reports(check_final=False)
        status = self.status(include_wall=False)
        return {
            "config": status["config"],
            "homes": {
                name: dict(report.row(),
                           serial_order=list(report.serial_order))
                for name, report in reports.items()},
            "tenants": status["tenants"],
            "latency": {"total": status["latency"]["total"]},
            "virtual_makespan": round(
                max(home.sim.now for home in self.homes.values()), 6),
        }

    def final_report_json(self) -> str:
        return json.dumps(self.final_report(), sort_keys=True,
                          indent=2) + "\n"
