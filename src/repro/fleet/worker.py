"""The fleet worker: simulate one home (or one chunk) end-to-end.

Workers rebuild workloads locally from compact specs — a row is plain
JSON-serializable data so results cross process boundaries cheaply.

Per-worker home reuse: a :class:`HomeFactory` keeps ONE
:class:`~repro.hub.safehome.SafeHome` alive and ``reset()``s it
between homes (re-seeding the simulator, clearing the registry and
re-keying the RNG streams in place) instead of rebuilding the whole
stack per home.  Reset-vs-fresh equivalence is property-tested over
all five visibility models in ``tests/test_fleet.py``.

With a hub-crash schedule (``crashes > 0``) the worker builds a
*durable* hub, runs it through ``run_crashing`` over ``CrashPlan.seeded``
times, recovering in the spec's mode, and adds recovery counters to the
row (docs/durability.md).  With ``crashes == 0`` the home is non-durable
and the row is byte-identical to pre-durability fleets.
"""

from functools import partial
from typing import Any, Dict, Optional

from repro.fleet.sharding import HomeSpec
from repro.fleet.spool import SpoolWriter, home_wal_record
from repro.hub.durability.recovery import CrashPlan, run_crashing
from repro.hub.safehome import SafeHome
from repro.workloads.fleet_mix import build_fleet_workload

#: Fallback crash horizon when a scenario carries no hint (virtual s).
_CRASH_HORIZON_S = 60.0


class HomeFactory:
    """Build-or-reuse one ``SafeHome`` per worker.

    The first task constructs the hub; every later task ``reset()``s
    it with the next home's seed.  The context fixes everything else
    (model, scheduler, execution, durability), so a reset hub is
    byte-equivalent to a fresh one — the equivalence property test in
    ``tests/test_fleet.py`` pins that across all visibility models.
    """

    def __init__(self, context) -> None:
        self.context = context
        self._home: Optional[SafeHome] = None
        self._spool: Optional[SpoolWriter] = None

    def acquire(self, seed: int) -> SafeHome:
        """A hub seeded for the next home (fresh once, then reused)."""
        context = self.context
        # A WAL spool directory forces durability even without a crash
        # schedule: the spooled WAL is the durable artifact itself.
        durability = bool(context.crashes) or bool(context.wal_dir)
        home = self._home
        if home is None:
            home = self._home = SafeHome(
                visibility=context.model, scheduler=context.scheduler,
                execution=context.execution, seed=seed,
                durability=durability)
            return home
        return home.reset(seed=seed, durability=durability)

    def run_task(self, task) -> Dict[str, Any]:
        """Simulate one compact ``(home_id, scenario, seed)`` task."""
        home_id, scenario, seed = task
        context = self.context
        spec = HomeSpec(
            home_id=home_id, scenario=scenario, seed=seed,
            model=context.model, scheduler=context.scheduler,
            execution=context.execution,
            check_final=context.check_final,
            exhaustive_limit=context.exhaustive_limit,
            max_events=context.max_events,
            crashes=context.crashes, recovery=context.recovery)
        control = context.control
        if control is not None:
            directive = control.directive_for(home_id)
            if directive is not None:
                # Controlled homes (supervision / live migration /
                # cohort overrides) run outside the reuse path: the
                # runner owns the whole hub lifecycle.
                from repro.fleet.control.runner import run_controlled_home

                return run_controlled_home(spec, directive,
                                           control.supervision)
        home = self.acquire(seed)
        row = run_home(spec, home=home)
        if context.wal_dir:
            if self._spool is None:
                self._spool = SpoolWriter(context.wal_dir)
            self._spool.write(home_wal_record(home_id, scenario, seed,
                                              home))
        return row


def home_row(spec: HomeSpec, result, report) -> Dict[str, Any]:
    """One home's metrics row from its run result + §7.1 report.

    Shared by :func:`run_home` and the control plane's supervised
    runner so every execution path emits identical row shapes.
    """
    return {
        "home_id": spec.home_id,
        "scenario": spec.scenario,
        "model": report.model_name,
        "seed": spec.seed,
        "routines": report.routines,
        "committed": report.committed,
        "aborted": report.aborted,
        "abort_rate": report.abort_rate,
        "latencies": result.latencies(),
        "lat_p50": report.latency["p50"],
        "lat_p95": report.latency["p95"],
        "temporary_incongruence": report.temporary_incongruence,
        "final_congruent": report.final_congruent,
        "makespan": result.makespan,
    }


def run_home(spec: HomeSpec,
             home: Optional[SafeHome] = None) -> Dict[str, Any]:
    """Simulate one home from its spec; return its metrics row.

    The home is a full :class:`~repro.hub.safehome.SafeHome` hub — the
    same facade users program against — loaded with the spec's scenario
    workload and analyzed with the §7.1 metrics.  ``latencies`` carries
    the raw per-routine samples so the fleet aggregate can compute true
    cross-home percentiles instead of averaging per-home percentiles.
    ``home`` lets a :class:`HomeFactory` supply a reset, pre-seeded hub
    instead of constructing one.
    """
    workload = build_fleet_workload(spec.scenario, seed=spec.seed)
    if home is None:
        home = SafeHome(visibility=spec.model, scheduler=spec.scheduler,
                        execution=spec.execution, seed=spec.seed,
                        durability=bool(spec.crashes))
    home.load_workload(workload)
    recoveries = []
    if spec.crashes:
        horizon = workload.horizon_hint or _CRASH_HORIZON_S
        recoveries = run_crashing(
            home, CrashPlan.seeded(spec.seed, spec.crashes, horizon=horizon),
            partial(home.recover, spec.recovery), spec.max_events)
    result = home.run(max_events=spec.max_events)
    report = home.report(check_final=spec.check_final,
                         exhaustive_limit=spec.exhaustive_limit)
    row = home_row(spec, result, report)
    if spec.crashes:
        # Deterministic recovery counters only (wall time excluded).
        row["hub_crashes"] = len(recoveries)
        row["hub_replayed_events"] = sum(r.replayed_events
                                         for r in recoveries)
        row["hub_recovery_aborted"] = sum(len(r.aborted)
                                          for r in recoveries)
    return row

