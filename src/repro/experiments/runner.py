"""Shared experiment executor: a trial loop over the hub.

Each trial builds one :class:`~repro.hub.safehome.SafeHome` — the same
edge stack the fleet, the serve hub and the durable hub run — loads the
workload (open-loop arrivals and/or closed-loop streams), runs it to
completion and returns the :class:`RunResult` plus the hub's
:class:`MetricsReport`.
"""

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.controller import (Controller, ControllerConfig, RunResult)
from repro.core.visibility import VisibilityModel
from repro.devices.failures import FailurePlan
from repro.devices.network import LatencyModel
from repro.hub.safehome import SafeHome
from repro.metrics.collector import MetricsReport
from repro.sim.random import RandomStreams
from repro.workloads.base import Workload


@dataclass
class ExperimentSetup:
    """Everything fixed across the trials of one experiment."""

    model: Union[str, VisibilityModel] = "ev"
    scheduler: str = "timeline"
    execution: Optional[str] = None     # None = keep config's strategy
    config: Optional[ControllerConfig] = None
    latency: LatencyModel = field(default_factory=LatencyModel)
    seed: int = 0
    check_final: bool = True
    exhaustive_limit: int = 7
    max_events: int = 5_000_000


def run_workload(workload: Workload, setup: ExperimentSetup,
                 trial: int = 0
                 ) -> Tuple[RunResult, MetricsReport, Controller]:
    """Execute one trial of ``workload`` under ``setup``.

    Workloads marked ``meta["scale_failures"]`` get a calibration pass:
    a failure-free dry run measures the model's makespan, and failure
    times are rescaled so devices fail "at a random point during the
    run" (§7.4) regardless of how long the model takes.
    """
    if workload.failure_plans and workload.meta.get("scale_failures"):
        workload = _scale_failure_plans(workload, setup, trial)
    return _run_once(workload, setup, trial)


def _scale_failure_plans(workload: Workload, setup: ExperimentSetup,
                         trial: int) -> Workload:
    dry_result, _report, _controller = _run_once(
        replace(workload, failure_plans=[]),
        replace(setup, check_final=False), trial)
    makespan = max(dry_result.makespan, 1.0)
    generated_horizon = workload.meta.get(
        "failure_horizon", workload.horizon_hint or makespan)
    scale = makespan / max(generated_horizon, 1e-9)
    scaled = []
    for plan in workload.failure_plans:
        fail_at = plan.fail_at * scale
        restart_at = None
        if plan.restart_at is not None:
            restart_at = fail_at + (plan.restart_at - plan.fail_at)
        scaled.append(FailurePlan(plan.device_id, fail_at, restart_at))
    return replace(workload, failure_plans=scaled,
                   meta={**workload.meta, "scale_failures": False})


def _run_once(workload: Workload, setup: ExperimentSetup,
              trial: int = 0
              ) -> Tuple[RunResult, MetricsReport, Controller]:
    home = SafeHome(
        visibility=setup.model, scheduler=setup.scheduler,
        execution=setup.execution, config=setup.config,
        latency=setup.latency,
        seed=RandomStreams(seed=setup.seed).spawn(trial).seed)
    home.load_workload(workload)
    result = home.run(max_events=setup.max_events)
    report = home.report(check_final=setup.check_final,
                         exhaustive_limit=setup.exhaustive_limit)
    return result, report, home.controller


def run_trials(workload_factory: Callable[[int], Workload],
               setup: ExperimentSetup, trials: int) -> List[MetricsReport]:
    """Run ``trials`` independent trials; ``workload_factory(trial)``
    returns the (re-seeded) workload for each."""
    return [run_workload(workload_factory(trial), setup, trial=trial)[1]
            for trial in range(trials)]


def aggregate(reports: List[MetricsReport]) -> Dict[str, Any]:
    """Pool per-trial reports into one experiment row."""
    from repro.metrics.stats import mean

    def pooled(attr: str) -> float:
        return mean([getattr(report, attr) for report in reports])

    latencies_p50 = mean([r.latency["p50"] for r in reports])
    latencies_p95 = mean([r.latency["p95"] for r in reports])
    final_checked = [r.final_congruent for r in reports
                     if r.final_congruent is not None]
    return {
        "trials": len(reports),
        "lat_p50": latencies_p50,
        "lat_p95": latencies_p95,
        "wait_p50": mean([r.wait_time["p50"] for r in reports]),
        "temp_incong": pooled("temporary_incongruence"),
        "parallelism": pooled("parallelism_mean"),
        "abort_rate": pooled("abort_rate"),
        "rollback": pooled("rollback_overhead_mean"),
        "order_mismatch": pooled("order_mismatch"),
        "final_incongruence": (
            1.0 - sum(final_checked) / len(final_checked)
            if final_checked else None),
    }
