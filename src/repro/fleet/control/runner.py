"""Worker-side controlled execution: supervise + migrate one home.

The control loop's counterpart of :func:`repro.fleet.worker.run_home`.
A controlled home owns a full hub lifecycle: the seeded crash schedule
plain durable fleets draw (``CrashPlan.seeded``, run by ``run_crashing``),
supervised restarts with bounded (journaled, virtual) backoff, an
optional live model migration at its directive's virtual time, and a
closing congruence-oracle pass.  Everything the supervisor does lands
in the row's ``ops`` list — plain JSON, no wall clock — which the
parent :class:`~repro.fleet.control.loop.ControlLoop` folds into the
deterministic ops journal.
"""

from typing import Any, Dict, List

from repro.errors import MigrationError, RecoveryError
from repro.fleet.sharding import HomeSpec
from repro.fleet.control.program import HomeDirective, SupervisionPolicy
from repro.fleet.worker import _CRASH_HORIZON_S, home_row
from repro.hub.durability.recovery import CrashPlan, run_crashing
from repro.hub.safehome import SafeHome
from repro.metrics.oracle import check_run
from repro.workloads.fleet_mix import build_fleet_workload


class _Abandoned(Exception):
    """Internal: the supervisor gave up on this home."""


def _now(home: SafeHome) -> float:
    return round(home.sim.now, 6)


def _heal(home: SafeHome, policy: SupervisionPolicy, spec: HomeSpec,
          ops: List[Dict[str, Any]], restarts: int) -> int:
    """Restart a crashed home until healthy or out of budget.

    Each attempt recovers in ``spec.recovery``, journaling the virtual
    backoff the supervisor applies (storm damping) and the post-restart
    health probe.  Returns the updated total restart count; raises
    :class:`_Abandoned` when the budget is exhausted.
    """
    while home.crashed:
        restarts += 1
        if restarts > policy.max_restarts:
            ops.append({"op": "abandon", "home": spec.home_id,
                        "t": _now(home), "restarts": restarts - 1})
            raise _Abandoned(
                f"restart budget exhausted ({policy.max_restarts})")
        ops.append({"op": "restart", "home": spec.home_id,
                    "t": _now(home), "attempt": restarts,
                    "backoff_s": policy.backoff_s(restarts),
                    "mode": spec.recovery})
        try:
            report = home.recover(mode=spec.recovery)
        except RecoveryError as exc:
            # recover() left the hub crashed with its WAL intact, so
            # the next attempt retries deterministically (and, being
            # deterministic, fails the same way until the budget runs
            # out — exactly what the abandon path is for).
            ops.append({"op": "restart-failed", "home": spec.home_id,
                        "t": _now(home), "attempt": restarts,
                        "error": str(exc)})
            continue
        ops.append({"op": "probe", "home": spec.home_id,
                    "t": _now(home), "healthy": not home.crashed,
                    "replayed_events": report.replayed_events,
                    "aborted": len(report.aborted)})
    return restarts


def _failed_row(spec: HomeSpec, reason: str) -> Dict[str, Any]:
    """A zeroed row for an abandoned home (excluded from aggregates)."""
    return {
        "home_id": spec.home_id,
        "scenario": spec.scenario,
        "model": spec.model,
        "seed": spec.seed,
        "routines": 0,
        "committed": 0,
        "aborted": 0,
        "abort_rate": 0.0,
        "latencies": [],
        "lat_p50": 0.0,
        "lat_p95": 0.0,
        "temporary_incongruence": 0.0,
        "final_congruent": None,
        "makespan": 0.0,
        "failed": reason,
    }


def run_controlled_home(spec: HomeSpec, directive: HomeDirective,
                        policy: SupervisionPolicy) -> Dict[str, Any]:
    """Run one home under the control plane; return its metrics row.

    ``spec`` already carries the directive's cohort overrides.  The
    crash driver runs its seeded crash schedule around the directive's
    migration step, in virtual-time order.  Crashes are healed by
    :func:`_heal`; an unfired crash (the queue drained first) is
    cancelled before migrating so the replayed history stays
    crash-free past that point.  The row carries ``cohort``,
    ``restarts``, ``migrated``, the oracle verdict and the ``ops``
    journal on top of the standard fleet columns.
    """
    workload = build_fleet_workload(spec.scenario, seed=spec.seed)
    durable = bool(spec.crashes) or bool(directive.migrate_to)
    home = SafeHome(visibility=spec.model, scheduler=spec.scheduler,
                    execution=spec.execution, seed=spec.seed,
                    durability=durable)
    home.load_workload(workload)

    plans = CrashPlan.seeded(
        spec.seed, spec.crashes,
        horizon=workload.horizon_hint or _CRASH_HORIZON_S)
    # Crashes up to the migration step (ties included) fire before it.
    cut = sum(plan.at <= directive.migrate_at for plan in plans) \
        if directive.migrate_to else len(plans)
    ops: List[Dict[str, Any]] = []
    restarts = 0
    migrated = False
    failed = ""

    def heal():
        nonlocal restarts
        ops.append({"op": "crash", "home": spec.home_id, "t": _now(home)})
        restarts = _heal(home, policy, spec, ops, restarts)
        return home.recoveries[-1]

    try:
        fired = run_crashing(home, plans[:cut], heal, spec.max_events)
        if directive.migrate_to:
            home.run(until=directive.migrate_at, max_events=spec.max_events)
            if home.crashed:       # pragma: no cover - defensive
                heal()
            # A scheduled-but-unfired crash would replay as pending
            # under the target model; withdraw it first.
            home.cancel_crash()
            report = home.migrate(directive.migrate_to)
            migrated = True
            ops.append({"op": "migrate", "home": spec.home_id,
                        **report.row()})
            if len(fired) == cut:   # no earlier crash found the queue empty
                run_crashing(home, plans[cut:], heal, spec.max_events)
    except _Abandoned as exc:
        failed = str(exc)
    except MigrationError as exc:
        failed = f"migration failed: {exc}"
        ops.append({"op": "abandon", "home": spec.home_id,
                    "t": _now(home), "error": str(exc)})

    if failed:
        row = _failed_row(spec, failed)
        row["oracle_ok"] = False
        row["oracle_violations"] = []
    else:
        result = home.run(max_events=spec.max_events)
        report = home.report(check_final=spec.check_final,
                             exhaustive_limit=spec.exhaustive_limit)
        row = home_row(spec, result, report)
        oracle = check_run(result, home.initial,
                           exhaustive_limit=spec.exhaustive_limit)
        row["oracle_ok"] = oracle.ok
        row["oracle_violations"] = [v.to_dict()
                                    for v in oracle.violations]
    row["cohort"] = directive.cohort
    row["restarts"] = restarts
    row["migrated"] = directive.migrate_to if migrated else ""
    if durable:
        row["hub_crashes"] = sum(op["op"] == "crash" for op in ops)
        row["hub_replayed_events"] = sum(r.replayed_events
                                         for r in home.recoveries)
        row["hub_recovery_aborted"] = sum(len(r.aborted)
                                          for r in home.recoveries)
    row["ops"] = ops
    return row
