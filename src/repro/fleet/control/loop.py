"""The deterministic control loop: execute one fleet plan, step by step.

The loop compiles a validated :class:`~repro.fleet.control.plan.
FleetPlan` into per-home :class:`~repro.fleet.control.program.
HomeDirective`s, spawns the fleet's worker pool with the program in the
broadcast context, and journals every step — plan load, cohort
assignment, pool spawns, each home's supervision/migration ops, the
canary verdict and any rollback — into an :class:`~repro.fleet.control.
opslog.OpsLog`.  Two runs of the same plan produce byte-identical ops
logs and result JSON; the CI ``control`` job enforces that with
``cmp``.

Worker-count clamping is re-queried per spawn through
:meth:`FleetEngine.pool_workers`: the canary rollback re-spawns over
the canary homes only, and a stale fleet-wide worker count would spawn
idle workers for chunks that do not exist.
"""

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import PlanError
from repro.fleet.control.opslog import OpsLog
from repro.fleet.control.plan import (STABLE_COHORT, FleetPlan,
                                      assign_cohorts, load_plan)
from repro.fleet.control.program import (ControlProgram, HomeDirective,
                                         SupervisionPolicy)
from repro.fleet.engine import FleetConfig, FleetEngine
from repro.fleet.pool import POOLS, plan_chunks
from repro.metrics.cohort import cohort_aggregates, compare_cohorts


@dataclass
class ControlResult:
    """Everything one plan application produced."""

    plan: FleetPlan
    config: FleetConfig
    rows: List[Dict[str, Any]]          # sorted by home_id
    cohorts: Dict[str, Dict[str, Any]]  # cohort -> aggregate
    canary: Optional[Dict[str, Any]]    # compare_cohorts verdict
    rolled_back: bool
    ops: OpsLog = field(default_factory=OpsLog)

    @property
    def failed_homes(self) -> List[int]:
        return [row["home_id"] for row in self.rows if row.get("failed")]

    @property
    def oracle_violations(self) -> int:
        return sum(len(row.get("oracle_violations", []))
                   for row in self.rows)

    @property
    def migrated_homes(self) -> List[int]:
        return [row["home_id"] for row in self.rows
                if row.get("migrated")]

    @property
    def ok(self) -> bool:
        """Oracle-clean and nothing abandoned."""
        return not self.failed_homes and all(
            row.get("oracle_ok", True) for row in self.rows)

    def to_json(self, per_home: bool = False, indent: int = 2) -> str:
        """Deterministic JSON: same plan ⇒ byte-identical output."""
        payload: Dict[str, Any] = {
            "plan": self.plan.to_dict(),
            "homes": len(self.rows),
            "cohorts": self.cohorts,
            "canary": self.canary,
            "rolled_back": self.rolled_back,
            "migrated": len(self.migrated_homes),
            "restarts": sum(row.get("restarts", 0) for row in self.rows),
            "failed": self.failed_homes,
            "oracle": {"ok": self.ok,
                       "violations": self.oracle_violations},
            "ops": len(self.ops),
        }
        if per_home:
            payload["rows"] = [
                {key: value for key, value in row.items()
                 if key not in ("latencies", "ops")}
                for row in self.rows]
        return json.dumps(payload, sort_keys=True, indent=indent)


class ControlLoop:
    """Execute one :class:`FleetPlan` deterministically."""

    def __init__(self, plan: FleetPlan) -> None:
        plan.validate()
        self.plan = plan
        self.config = FleetConfig.from_plan(plan.fleet)
        # The control plane owns its spawns: streaming partials, WAL
        # spooling and profiling belong to plain `repro fleet` runs.
        for key, value, allowed in (
                ("aggregate", self.config.aggregate, "exact"),
                ("wal_dir", self.config.wal_dir, ""),
                ("profile_dir", self.config.profile_dir, "")):
            if value != allowed:
                raise PlanError(
                    f"control plans do not support fleet.{key}="
                    f"{value!r} (only {allowed!r})")
        self.engine = FleetEngine(self.config)
        self.log = OpsLog()

    # -- compilation ---------------------------------------------------------

    def _cohort_settings(self, cohort: str) -> Dict[str, Any]:
        """The resolved per-home settings of one cohort."""
        config = self.config
        settings = {"model": config.model,
                    "scheduler": config.scheduler,
                    "execution": config.execution,
                    "crashes": config.crashes,
                    "recovery": config.recovery}
        for named in self.plan.cohorts:
            if named.name == cohort:
                settings.update(named.override_map())
        return settings

    def _compile(self, assignment: Dict[int, str],
                 home_ids: Optional[List[int]] = None,
                 stable_override: bool = False) -> ControlProgram:
        """Directives for ``home_ids`` (default: the whole fleet).

        With ``stable_override`` (the rollback path) every directive
        gets the stable cohort's settings and no migration step,
        whatever cohort the home belongs to.
        """
        migrate_by_cohort = {step.cohort: step
                             for step in self.plan.migrations}
        directives: List[HomeDirective] = []
        wanted = None if home_ids is None else set(home_ids)
        for home_id, _scenario, _seed in self.engine.tasks():
            if wanted is not None and home_id not in wanted:
                continue
            cohort = assignment[home_id]
            source = STABLE_COHORT if stable_override else cohort
            settings = self._cohort_settings(source)
            step = None if stable_override \
                else migrate_by_cohort.get(cohort)
            directives.append(HomeDirective(
                home_id=home_id, cohort=cohort,
                model=settings["model"],
                scheduler=settings["scheduler"],
                execution=settings["execution"],
                crashes=settings["crashes"],
                recovery=settings["recovery"],
                migrate_to=step.to_model if step else "",
                migrate_at=step.at_s if step else 0.0))
        return ControlProgram(directives=tuple(directives),
                              supervision=self.plan.supervision)

    # -- execution -----------------------------------------------------------

    def _spawn(self, tasks: List[Tuple[int, str, int]],
               program: ControlProgram,
               phase: str) -> List[Dict[str, Any]]:
        """One pool spawn over ``tasks``; folds worker ops into the log.

        The worker count is re-queried against *this* spawn's chunk
        plan (:meth:`FleetEngine.pool_workers`) — never reused from an
        earlier, larger spawn.
        """
        config = self.config
        chunks = plan_chunks(tasks, config.effective_chunk())
        workers = self.engine.pool_workers(len(chunks))
        self.log.record("pool-spawned", phase=phase,
                        backend=config.backend, workers=workers,
                        chunks=len(chunks), homes=len(tasks))
        context = replace(self.engine.context(), control=program)
        pool = POOLS[config.backend](workers)
        results = pool.run(context, chunks)
        rows = sorted((row for result in results for row in result.rows),
                      key=lambda row: row["home_id"])
        for row in rows:
            self.log.extend(row.pop("ops", []))
        return rows

    def _judge_canary(self, aggregates: Dict[str, Dict[str, Any]]
                      ) -> Optional[Dict[str, Any]]:
        canary = self.plan.canary
        if canary is None:
            return None
        if canary.cohort not in aggregates or \
                canary.baseline not in aggregates:
            missing = [name for name in (canary.cohort, canary.baseline)
                       if name not in aggregates]
            return {"regressed": True,
                    "reasons": [f"cohort(s) {missing} produced no "
                                f"healthy homes"],
                    "deltas": {}}
        return compare_cohorts(
            aggregates[canary.cohort], aggregates[canary.baseline],
            max_abort_rate_delta=canary.max_abort_rate_delta,
            max_incongruence_delta=canary.max_incongruence_delta,
            max_p95_ratio=canary.max_p95_ratio)

    def run(self) -> ControlResult:
        """Apply the whole plan; every step lands in :attr:`log`."""
        plan, config, log = self.plan, self.config, self.log
        log.record("plan-loaded", version=plan.version,
                   homes=config.homes, seed=config.seed,
                   model=config.model, scenario=config.scenario,
                   cohorts=[c.name for c in plan.cohorts],
                   migrations=[m.to_dict() for m in plan.migrations],
                   canary=plan.canary.to_dict() if plan.canary else None,
                   supervision={
                       "max_restarts": plan.supervision.max_restarts,
                       "recovery": plan.supervision.recovery})
        assignment = assign_cohorts(plan, config.homes, config.seed)
        members: Dict[str, List[int]] = {}
        for home_id, cohort in sorted(assignment.items()):
            members.setdefault(cohort, []).append(home_id)
        log.record("cohorts-assigned",
                   cohorts={name: members[name]
                            for name in sorted(members)})
        for step in plan.migrations:
            log.record("migration-planned", cohort=step.cohort,
                       to_model=step.to_model, at_s=step.at_s,
                       homes=len(members.get(step.cohort, [])))

        program = self._compile(assignment)
        rows = self._spawn(self.engine.tasks(), program, phase="fleet")

        aggregates = cohort_aggregates(rows)
        for name in sorted(aggregates):
            agg = aggregates[name]
            log.record("cohort-metrics", phase="fleet", cohort=name,
                       homes=agg["homes"],
                       abort_rate=agg["abort_rate"],
                       final_incongruence=agg["final_incongruence"],
                       lat_p95=agg["latency"]["p95"])

        verdict = self._judge_canary(aggregates)
        rolled_back = False
        if verdict is not None:
            log.record("canary-verdict", cohort=plan.canary.cohort,
                       baseline=plan.canary.baseline, **verdict)
            if verdict["regressed"] and plan.canary.rollback:
                rolled_back = True
                canary_ids = members.get(plan.canary.cohort, [])
                log.record("rollback", cohort=plan.canary.cohort,
                           homes=len(canary_ids))
                rollback_tasks = [task for task in self.engine.tasks()
                                  if task[0] in set(canary_ids)]
                rollback_program = self._compile(
                    assignment, home_ids=canary_ids,
                    stable_override=True)
                rollback_rows = self._spawn(rollback_tasks,
                                            rollback_program,
                                            phase="rollback")
                replaced = {row["home_id"]: row for row in rollback_rows}
                rows = sorted(
                    [replaced.get(row["home_id"], row) for row in rows],
                    key=lambda row: row["home_id"])
                aggregates = cohort_aggregates(rows)
                for name in sorted(aggregates):
                    agg = aggregates[name]
                    log.record("cohort-metrics", phase="post-rollback",
                               cohort=name, homes=agg["homes"],
                               abort_rate=agg["abort_rate"],
                               final_incongruence=agg[
                                   "final_incongruence"],
                               lat_p95=agg["latency"]["p95"])

        result = ControlResult(plan=plan, config=config, rows=rows,
                               cohorts=aggregates, canary=verdict,
                               rolled_back=rolled_back, ops=log)
        log.record("complete", homes=len(rows),
                   migrated=len(result.migrated_homes),
                   restarts=sum(row.get("restarts", 0) for row in rows),
                   failed=result.failed_homes,
                   oracle_ok=result.ok,
                   rolled_back=rolled_back)
        return result


def apply_plan(plan: Union[str, FleetPlan],
               ops_path: str = "") -> ControlResult:
    """One-call convenience: load (if a path), execute, spool the log."""
    if isinstance(plan, str):
        plan = load_plan(plan)
    result = ControlLoop(plan).run()
    if ops_path:
        result.ops.save(ops_path)
    return result
