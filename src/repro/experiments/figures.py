"""Figure/table drivers: each ``figNN`` function regenerates the data
series behind the corresponding figure in the paper's evaluation (§7),
returning printable rows.  Trial counts are parameters — the paper used
up to 1M trials per datapoint; defaults here keep the full suite fast
while preserving the shapes (see EXPERIMENTS.md).

Each driver's ``@sweep`` line is its one registration (see
:mod:`repro.bench.registry`): sweep name, table title, ``repro
figures`` id and ``--trials`` rule, and the reduced parameters the
golden and the shape assertions run it with — the shapes are stable at
those sizes.
"""

import time
from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.bench.registry import scaled_trials, sweep
from repro.core.controller import ControllerConfig
from repro.devices.network import LatencyModel
from repro.experiments.runner import (ExperimentSetup, run_trials,
                                      run_workload, trial_home)
from repro.metrics.stats import cdf_points, mean, percentile
from repro.workloads.fleet_mix import build_fleet_workload
from repro.workloads.lights import lights_workload
from repro.workloads.micro import MicroParams, generate_microbenchmark

MODELS = ("wv", "ev", "psv", "gsv")
_FIFTH_OF_TRIALS = scaled_trials(5, 2)


def _micro_reports(params: MicroParams, model: str, trials: int,
                   seed: int, scheduler: str = "timeline",
                   config: Optional[ControllerConfig] = None) -> List:
    setup = ExperimentSetup(model=model, scheduler=scheduler,
                            config=config, seed=seed, check_final=False)
    return run_trials(
        lambda trial: generate_microbenchmark(params,
                                              seed=seed * 7919 + trial),
        setup, trials)


# -- Fig 1: concurrency causes incongruent end states under WV ------------------


@sweep("weak_visibility", "Fig 1", figure="fig01", cli=scaled_trials(),
       trials=20, device_counts=(2, 4, 8, 15), offsets=(0.0, 0.5, 2.0))
def fig01_weak_visibility(device_counts=(2, 4, 6, 8, 10, 12, 15),
                          offsets=(0.0, 0.5, 1.0, 2.0),
                          trials: int = 50, seed: int = 1
                          ) -> List[Dict[str, Any]]:
    """Fraction of non-serialized end states: R1=all-ON vs R2=all-OFF.

    Reproduces the real-deployment mechanism with a slow, jittery
    device link (TP-Link commands take 100-300 ms)."""
    latency = LatencyModel(median_ms=150.0, sigma=0.8, floor_ms=20.0)
    rows = []
    for offset in offsets:
        for n_devices in device_counts:
            incongruent = 0
            for trial in range(trials):
                workload = lights_workload(n_devices, offset)
                setup = ExperimentSetup(model="wv", latency=latency,
                                        seed=seed + trial,
                                        check_final=False)
                result, _report, _c = run_workload(workload, setup,
                                                   trial=trial)
                if len(set(result.end_state.values())) > 1:
                    incongruent += 1
            rows.append({"offset_s": offset, "devices": n_devices,
                         "incongruent_fraction": incongruent / trials})
    return rows


# -- Fig 2: the 5-routine example under GSV / PSV / EV ----------------------------


@sweep("example_timeline", "Fig 2", figure="fig02", seed=1)
def fig02_example(seed: int = 1) -> List[Dict[str, Any]]:
    """Execution times of the paper's 5 concurrent example routines.

    R1/R2 make coffee+pancakes, R3 pancakes, R4 Roomba+mop (living),
    R5 mop (kitchen).  One "time unit" = 60 s.  GSV serializes (8 units),
    PSV parallelizes disjoint routines (5), EV pipelines (3)."""
    from repro.core.command import Command
    from repro.core.routine import Routine
    from repro.workloads.base import Workload

    unit = 60.0
    # devices: 0 coffee, 1 pancake, 2 roomba, 3 mop-living, 4 mop-kitchen
    devices = [("coffee_maker", "coffee"), ("pancake_maker", "pancake"),
               ("vacuum", "roomba"), ("mop", "mop-living"),
               ("mop", "mop-kitchen")]

    def routine(name, steps):
        return Routine(name=name, commands=[
            Command(device_id=d, value=v, duration=t * unit)
            for d, v, t in steps])

    routines = [
        routine("R1", [(0, "Espresso", 1), (1, "Vanilla", 1)]),
        routine("R2", [(0, "Americano", 1), (1, "Strawberry", 1)]),
        routine("R3", [(1, "Regular", 1)]),
        routine("R4", [(2, "CLEANING", 1), (3, "MOPPING", 1)]),
        routine("R5", [(4, "MOPPING", 1)]),
    ]
    workload = Workload(name="fig2", devices=devices,
                        arrivals=[(r, 0.0) for r in routines])
    rows = []
    for model in ("gsv", "psv", "ev"):
        setup = ExperimentSetup(model=model, seed=seed,
                                latency=LatencyModel.deterministic(10.0),
                                check_final=True, exhaustive_limit=5)
        result, report, _c = run_workload(workload, setup)
        rows.append({
            "model": model,
            "makespan_units": round(max(r.finish_time for r in result.runs)
                                    / unit, 2),
            "mean_latency_units": round(mean(result.latencies()) / unit, 2),
            "mean_wait_units": round(
                mean([r.wait_time for r in result.runs]) / unit, 2),
            "temporary_incongruence": report.temporary_incongruence,
            "final_serializable": report.final_congruent,
        })
    return rows


# -- Fig 12a/12b: trace-based scenarios -------------------------------------------


@sweep("scenarios", "Fig 12a", figure="fig12a", cli=scaled_trials(4, 3),
       trials=5)
def fig12a_scenarios(trials: int = 20, seed: int = 3,
                     scenarios=("morning", "party", "factory"),
                     models=MODELS) -> List[Dict[str, Any]]:
    """Latency / temporary incongruence / parallelism per scenario."""
    rows = []
    for scenario_name in scenarios:
        for model in models:
            latencies: List[float] = []
            waits: List[float] = []
            incongruences: List[float] = []
            parallelisms: List[float] = []
            for trial in range(trials):
                workload = build_fleet_workload(scenario_name,
                                                seed * 131 + trial)
                setup = ExperimentSetup(model=model, seed=seed + trial,
                                        check_final=False)
                result, report, _c = run_workload(workload, setup,
                                                  trial=trial)
                latencies.extend(result.latencies())
                waits.extend([r.wait_time for r in result.runs
                              if r.wait_time is not None])
                incongruences.append(report.temporary_incongruence)
                parallelisms.append(report.parallelism_mean)
            rows.append({
                "scenario": scenario_name,
                "model": model,
                "lat_p50": percentile(latencies, 50),
                "lat_p90": percentile(latencies, 90),
                "lat_p95": percentile(latencies, 95),
                "wait_p50": percentile(waits, 50),
                "temp_incong": mean(incongruences),
                "parallelism": mean(parallelisms),
            })
    return rows


@sweep("final_incongruence", "Fig 12b", figure="fig12b",
       cli=scaled_trials(floor=20, param="runs"), runs=40, n_routines=9)
def fig12b_final_incongruence(runs: int = 100, n_routines: int = 9,
                              seed: int = 4,
                              models=MODELS) -> List[Dict[str, Any]]:
    """Ratio of end states not equivalent to any serial order.

    9 routines per run, all launched concurrently over a small, skewed
    device pool (high contention — the regime Fig 12b targets); the
    serial-equivalence check searches the 9! orders (designated-last-
    writer pruning makes it fast)."""
    params = MicroParams(routines=n_routines, concurrency=n_routines,
                         devices=5, commands_per_routine=3,
                         long_routine_pct=0, short_duration_s=0.2,
                         zipf_alpha=0.3)
    rows = []
    for model in models:
        incongruent = 0
        for trial in range(runs):
            workload = generate_microbenchmark(params,
                                               seed=seed * 7 + trial)
            setup = ExperimentSetup(model=model, seed=seed + trial,
                                    check_final=True, exhaustive_limit=7)
            _result, report, _c = run_workload(workload, setup,
                                               trial=trial)
            if report.final_congruent is False:
                incongruent += 1
        rows.append({"model": model, "runs": runs,
                     "final_incongruence": incongruent / runs})
    return rows


# -- Fig 13: effect of failures -----------------------------------------------------


@sweep("failures", "Fig 13", figure="fig13", cli=_FIFTH_OF_TRIALS, trials=4)
def fig13_failures(trials: int = 10, seed: int = 5,
                   must_pcts=(0, 25, 50, 75, 100),
                   failure_pcts=(0, 10, 25, 50, 75),
                   models=("gsv", "sgsv", "psv", "ev")
                   ) -> Dict[str, List[Dict[str, Any]]]:
    """Abort rate and rollback overhead under device failures.

    Must% sweep at F=25% and F% sweep at M=100% — Fig 13a-d."""
    base = MicroParams(routines=40, concurrency=4, devices=15,
                       long_duration_s=120.0, short_duration_s=5.0)
    must_rows, failure_rows = [], []
    for model in models:
        for must in must_pcts:
            params = replace(base, must_pct=float(must),
                             failed_device_pct=25.0)
            reports = _micro_reports(params, model, trials, seed)
            must_rows.append({
                "model": model, "must_pct": must,
                "abort_rate": mean([r.abort_rate for r in reports]),
                "rollback_overhead": mean(
                    [r.rollback_overhead_mean for r in reports]),
            })
        for failed in failure_pcts:
            params = replace(base, failed_device_pct=float(failed))
            reports = _micro_reports(params, model, trials, seed)
            failure_rows.append({
                "model": model, "failed_pct": failed,
                "abort_rate": mean([r.abort_rate for r in reports]),
                "rollback_overhead": mean(
                    [r.rollback_overhead_mean for r in reports]),
            })
    return {"must_sweep": must_rows, "failure_sweep": failure_rows}


# -- Fig 14: scheduling policies -----------------------------------------------------


@sweep("schedulers", "Fig 14", figure="fig14", cli=_FIFTH_OF_TRIALS,
       trials=4, concurrencies=(1, 2, 4, 8))
def fig14_schedulers(trials: int = 10, seed: int = 6,
                     concurrencies=(1, 2, 4, 8),
                     schedulers=("fcfs", "jit", "timeline")
                     ) -> List[Dict[str, Any]]:
    """FCFS vs JiT vs Timeline under EV.

    Normalized latency, temporary incongruence, parallelism."""
    rows = []
    for scheduler in schedulers:
        for rho in concurrencies:
            params = MicroParams(routines=40, concurrency=rho, devices=15,
                                 long_duration_s=120.0,
                                 short_duration_s=5.0)
            reports = _micro_reports(params, "ev", trials, seed,
                                     scheduler=scheduler)
            rows.append({
                "scheduler": scheduler, "rho": rho,
                "norm_lat_p50": mean(
                    [r.norm_latency["p50"] for r in reports]),
                "lat_p50": mean([r.latency["p50"] for r in reports]),
                "temp_incong": mean(
                    [r.temporary_incongruence for r in reports]),
                "parallelism": mean(
                    [r.parallelism_mean for r in reports]),
            })
    return rows


# -- Fig 15: leasing ablation and TL internals ----------------------------------------


@sweep("leasing", "Fig 15a/b", figure="fig15ab", cli=_FIFTH_OF_TRIALS,
       trials=4, concurrencies=(2, 4, 8))
def fig15ab_leasing(trials: int = 10, seed: int = 7,
                    concurrencies=(2, 4, 8),
                    variants=None) -> List[Dict[str, Any]]:
    """Pre/post-lease ablation under TL scheduling (Fig 15a/15b)."""
    if variants is None:
        variants = {
            "both-on": (True, True),
            "pre-off": (False, True),
            "post-off": (True, False),
            "both-off": (False, False),
        }
    rows = []
    for label, (pre, post) in variants.items():
        for rho in concurrencies:
            params = MicroParams(routines=40, concurrency=rho, devices=15,
                                 long_duration_s=120.0,
                                 short_duration_s=5.0)
            config = ControllerConfig(pre_lease=pre, post_lease=post)
            reports = _micro_reports(params, "ev", trials, seed,
                                     scheduler="timeline", config=config)
            rows.append({
                "variant": label, "rho": rho,
                "lat_p50": mean([r.latency["p50"] for r in reports]),
                "temp_incong": mean(
                    [r.temporary_incongruence for r in reports]),
            })
    return rows


@sweep("stretch", "Fig 15c", figure="fig15c", cli=_FIFTH_OF_TRIALS,
       hide=("cdf",), trials=4, command_counts=(2, 4, 8))
def fig15c_stretch(trials: int = 10, seed: int = 8,
                   command_counts=(2, 4, 8)) -> List[Dict[str, Any]]:
    """CDF of the stretch factor as routine size C varies."""
    rows = []
    for c in command_counts:
        params = MicroParams(routines=40, concurrency=4, devices=15,
                             commands_per_routine=float(c),
                             long_duration_s=120.0, short_duration_s=5.0)
        stretches: List[float] = []
        for trial in range(trials):
            workload = generate_microbenchmark(params,
                                               seed=seed * 13 + trial)
            setup = ExperimentSetup(model="ev", scheduler="timeline",
                                    seed=seed + trial, check_final=False)
            _result, report, _c2 = run_workload(workload, setup,
                                                trial=trial)
            stretches.extend(report.stretch)
        stretched = [s for s in stretches if s > 1.05]
        rows.append({
            "commands_per_routine": c,
            "stretch_p50": percentile(stretches, 50),
            "stretch_p90": percentile(stretches, 90),
            "stretch_p99": percentile(stretches, 99),
            "fraction_stretched": len(stretched) / max(1, len(stretches)),
            "cdf": cdf_points(stretches, points=20),
        })
    return rows


def _insertion_outcome(rows, params):
    # Per-insertion milliseconds are this sweep's own stopwatch, so they
    # live under ``timing``; the deterministic part is the sweep shape.
    return {"metrics": {"routine_sizes": list(params["routine_sizes"]),
                        "insertions": len(rows)},
            "timing": {"rows": rows}}


@sweep("scheduler_insertion", "Fig 15d", figure="fig15d",
       outcome=_insertion_outcome, routine_sizes=(1, 4, 10))
def fig15d_insertion_time(routine_sizes=(1, 2, 4, 6, 8, 10),
                          n_devices: int = 15, n_routines: int = 30,
                          seed: int = 9) -> List[Dict[str, Any]]:
    """CPU time of one Timeline placement (Algorithm 1) vs routine size."""
    rows = []
    for size in routine_sizes:
        params = MicroParams(routines=n_routines, concurrency=6,
                             devices=n_devices,
                             commands_per_routine=float(size),
                             long_routine_pct=0.0, short_duration_s=5.0)
        home = trial_home(generate_microbenchmark(params, seed=seed),
                          ExperimentSetup(model="ev", seed=seed))
        place, samples = home.controller.scheduler._place, []

        def timed_place(run):
            started = time.perf_counter()
            placements = place(run)
            if len(run.commands) >= size:
                samples.append(time.perf_counter() - started)
            return placements

        home.controller.scheduler._place = timed_place
        home.run()
        rows.append({
            "commands": size,
            "mean_insert_ms": mean(samples) * 1000 if samples else 0.0,
            "max_insert_ms": max(samples, default=0.0) * 1000,
        })
    return rows


# -- Fig 16: routine size and device popularity -------------------------------------------


@sweep("routine_size", "Fig 16a-c", figure="fig16", cli=_FIFTH_OF_TRIALS,
       trials=4, command_counts=(1, 2, 3, 4, 6, 8))
def fig16_routine_size(trials: int = 10, seed: int = 10,
                       command_counts=(1, 2, 3, 4, 6, 8),
                       models=MODELS) -> List[Dict[str, Any]]:
    """Latency / parallelism / temp-incongruence & order mismatch vs C."""
    rows = []
    for model in models:
        for c in command_counts:
            params = MicroParams(routines=40, concurrency=4, devices=15,
                                 commands_per_routine=float(c),
                                 long_duration_s=120.0,
                                 short_duration_s=5.0)
            reports = _micro_reports(params, model, trials, seed)
            rows.append({
                "model": model, "commands": c,
                "lat_p50": mean([r.latency["p50"] for r in reports]),
                "parallelism": mean([r.parallelism_mean for r in reports]),
                "temp_incong": mean(
                    [r.temporary_incongruence for r in reports]),
                "order_mismatch": mean(
                    [r.order_mismatch for r in reports]),
            })
    return rows


@sweep("device_popularity", "Fig 16d", figure="fig16d",
       cli=_FIFTH_OF_TRIALS, trials=4, alphas=(0.0, 0.05, 0.5, 1.0))
def fig16d_popularity(trials: int = 10, seed: int = 11,
                      alphas=(0.0, 0.05, 0.2, 0.5, 1.0),
                      models=MODELS) -> List[Dict[str, Any]]:
    """Latency vs Zipf device-popularity skew α."""
    rows = []
    for model in models:
        for alpha in alphas:
            params = MicroParams(routines=40, concurrency=4, devices=15,
                                 zipf_alpha=alpha, long_duration_s=120.0,
                                 short_duration_s=5.0)
            reports = _micro_reports(params, model, trials, seed)
            rows.append({
                "model": model, "alpha": alpha,
                "lat_p50": mean([r.latency["p50"] for r in reports]),
            })
    return rows


# -- Fig 17: long-running routines --------------------------------------------------------


@sweep("long_routines", "Fig 17", figure="fig17", cli=_FIFTH_OF_TRIALS,
       trials=4, long_durations=(60.0, 300.0, 900.0),
       long_pcts=(0, 10, 25, 50))
def fig17_long_routines(trials: int = 10, seed: int = 12,
                        long_durations=(60.0, 300.0, 900.0),
                        long_pcts=(0, 10, 25, 50)
                        ) -> Dict[str, List[Dict[str, Any]]]:
    """Temporary incongruence & order mismatch vs |L| and L% (EV/TL)."""
    duration_rows, pct_rows = [], []
    for duration in long_durations:
        params = MicroParams(routines=40, concurrency=4, devices=15,
                             long_routine_pct=10.0,
                             long_duration_s=duration,
                             short_duration_s=5.0)
        reports = _micro_reports(params, "ev", trials, seed)
        duration_rows.append({
            "long_duration_s": duration,
            "temp_incong": mean(
                [r.temporary_incongruence for r in reports]),
            "order_mismatch": mean([r.order_mismatch for r in reports]),
        })
    for pct in long_pcts:
        params = MicroParams(routines=40, concurrency=4, devices=15,
                             long_routine_pct=float(pct),
                             long_duration_s=300.0, short_duration_s=5.0)
        reports = _micro_reports(params, "ev", trials, seed)
        pct_rows.append({
            "long_pct": pct,
            "temp_incong": mean(
                [r.temporary_incongruence for r in reports]),
            "order_mismatch": mean([r.order_mismatch for r in reports]),
        })
    return {"duration_sweep": duration_rows, "pct_sweep": pct_rows}
