"""Sweeps that are no paper figure: plan strategies, scenario synthesis,
fleet scale-out, recovery cost (``repro figures NAME`` prints one)."""

import dataclasses
from typing import Any, Dict

from repro.bench.registry import Rows, sweep
from repro.experiments.runner import ExperimentSetup, run_workload
from repro.metrics.congruence import temporary_incongruence_events
from repro.sim.random import RandomStreams, derive_seed
from repro.workloads.fanout import fanout_scenario

PARALLEL_EXEC_MODELS = ("wv", "gsv", "psv", "ev", "occ")


def parallel_exec_compare(model: str, seed: int = 0, routines: int = 6,
                          width: int = 8) -> Rows:
    """Serial vs parallel plan strategy on the wide fan-out workload: a
    row per strategy, each carrying the parallel plan's speedup."""
    rows = []
    for execution in ("serial", "parallel"):
        workload = fanout_scenario(seed=seed, routines=routines, width=width)
        setup = ExperimentSetup(model=model, execution=execution,
                                seed=seed, check_final=False)
        result, report, _controller = run_workload(workload, setup)
        p50 = report.plan_makespan.get("p50", 0.0)
        wait = sum(run.lock_wait_s for run in result.runs)
        rows.append({"model": model, "execution": execution,
                     "makespan": round(result.makespan, 6),
                     "plan_makespan_p50": round(p50, 6),
                     "lock_wait_total": round(wait, 6),
                     "committed": len(result.committed),
                     "aborted": len(result.aborted)})
    serial, parallel = (row["plan_makespan_p50"] for row in rows)
    speedup = round(serial / parallel, 3) if parallel > 0 else None
    return [dict(row, speedup=speedup) for row in rows]


def _by_model(rows: Rows, params: Dict[str, Any]) -> Dict[str, Any]:
    models: Dict[str, Any] = {}
    for row in rows:
        entry = models.setdefault(row["model"], {"speedup": row["speedup"]})
        entry[row["execution"]] = {key: row[key] for key in row if key not in
                                   ("model", "execution", "speedup")}
    return {"metrics": {"workload": dict(params, name="fanout"),
                        "models": models}}


@sweep("parallel_exec", "Serial vs parallel plans (fan-out)",
       outcome=_by_model, seed=0, routines=6, width=8)
def parallel_exec(seed: int = 0, routines: int = 6, width: int = 8) -> Rows:
    """Virtual-time speedup of parallel command plans, per model."""
    return [row for model in PARALLEL_EXEC_MODELS
            for row in parallel_exec_compare(model, seed, routines, width)]


def _scores(rows: Rows, params: Dict[str, Any]) -> Dict[str, Any]:
    return {"metrics": {
        "specs": len(rows), "routines": sum(r["routines"] for r in rows),
        "incongruence_scores": [r["incongruence"] for r in rows]}}


@sweep("synth_throughput", "Generated scenarios under EV",
       outcome=_scores, seed=11, specs=6, routines=24)
def synth_throughput(seed: int = 11, specs: int = 6,
                     routines: int = 24) -> Rows:
    """Temporary incongruence of a seeded batch of ``repro hunt`` specs."""
    from repro.workloads.synth import compile_spec, random_spec

    rng = RandomStreams(seed=seed).stream("bench-synth")
    rows = []
    for index in range(specs):
        spec = dataclasses.replace(
            random_spec(rng, seed=derive_seed(seed, f"bench:{index}")),
            routines=routines, failed_device_pct=0.0)
        workload = compile_spec(spec)
        result = run_workload(workload, ExperimentSetup(
            model="ev", seed=spec.seed, check_final=False))[0]
        rows.append({"spec": index, "routines": workload.routine_count,
                     "incongruence": temporary_incongruence_events(result)})
    return rows


@sweep("fleet_scale_sweep", "Fleet scale-out", scales=(1, 10, 100), seed=42)
def fleet_scale_sweep(scales=(1, 10, 100), seed: int = 42) -> Rows:
    """Fleet engine scale-out table: routines, p99 latency, abort rate."""
    from repro.fleet import FleetConfig, FleetEngine

    aggregates = [(homes, FleetEngine(FleetConfig(
        homes=homes, seed=seed, check_final=False)).run().aggregate)
        for homes in scales]
    return [{"homes": homes, "routines": agg["routines"],
             "lat_p99": round(agg["latency"]["p99"], 6),
             "abort_rate": round(agg["abort_rate"], 6)}
            for homes, agg in aggregates]


@sweep("recovery_sweep", "Recovery cost vs WAL length and checkpoints",
       repeats_list=(1, 2, 4), intervals=(8, 32, 0))
def recovery_sweep(repeats_list=(1, 2, 4), intervals=(8, 32, 0)) -> Rows:
    """Replayed work per recovery as the WAL grows and as the checkpoint
    interval changes (0: none)."""
    from repro.bench.suites.recovery_util import crash_and_recover

    cells = [("wal-length", repeats, 32) for repeats in repeats_list]
    cells += [("checkpoint-interval", 4, every) for every in intervals]
    rows = []
    for axis, repeats, every in cells:
        report = crash_and_recover(repeats, checkpoint_every=every)[1]
        rows.append({"sweep": axis, "repeats": repeats,
                     "checkpoint_every": every, **{
                         key: getattr(report, key) for key in (
                             "wal_records", "replayed_events",
                             "replayed_records", "checkpoints_verified")}})
    return rows
