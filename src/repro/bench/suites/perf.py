"""Benchmarks that are not experiment drivers.

The smoke entries are hot-path probes for a developer's timing table —
the simulator dispatch loop, parallel plan execution, the synthesis
engine — each well under a second per iteration (the two figure-shaped
smoke entries register in :mod:`repro.experiments.figures`).  The two
sweeps at the end are the fleet scale-out and recovery-cost tables.
Wall-clock regressions are judged by ``perf_ledger/``, not here.
"""

from typing import Any, Dict

from repro.bench.registry import benchmark
from repro.experiments.runner import ExperimentSetup, run_workload
from repro.workloads.fanout import fanout_scenario

PARALLEL_EXEC_MODELS = ("wv", "gsv", "psv", "ev", "occ")


@benchmark("sim_dispatch", suite="smoke", events=20000, fanout=4)
def sim_dispatch(events: int, fanout: int) -> Dict[str, Any]:
    """Raw simulator dispatch: chained timer events, no controller.

    The purest probe of the event-loop hot path (heap, Event
    construction, clock advance, hook dispatch): each fired event
    schedules ``fanout`` children until ``events`` have been requested,
    plus one cancelled event per firing to keep the lazy-cancellation
    bookkeeping honest.
    """
    from repro.sim.engine import Simulator

    sim = Simulator()
    state = {"scheduled": 0}

    def tick() -> None:
        doomed = sim.call_after(1000.0, tick)
        sim.cancel(doomed)
        for _ in range(fanout):
            if state["scheduled"] >= events:
                return
            state["scheduled"] += 1
            sim.call_after(0.001 * (state["scheduled"] % 7 + 1), tick)

    state["scheduled"] += 1
    sim.call_after(0.0, tick)
    sim.run()
    return {
        "virtual_s": sim.now,
        "metrics": {"events_processed": sim.events_processed,
                    "requested": state["scheduled"]},
    }


def parallel_exec_compare(model: str, seed: int = 0, routines: int = 6,
                          width: int = 8) -> Dict[str, Any]:
    """Serial vs parallel plan strategy on the wide fan-out workload."""
    row: Dict[str, Any] = {}
    for execution in ("serial", "parallel"):
        workload = fanout_scenario(seed=seed, routines=routines,
                                   width=width)
        setup = ExperimentSetup(model=model, execution=execution,
                                seed=seed, check_final=False)
        result, report, _controller = run_workload(workload, setup)
        row[execution] = {
            "makespan": round(result.makespan, 6),
            "plan_makespan_p50": round(
                report.plan_makespan.get("p50", 0.0), 6),
            "lock_wait_total": round(
                sum(run.lock_wait_s for run in result.runs), 6),
            "committed": len(result.committed),
            "aborted": len(result.aborted),
        }
    serial_p50 = row["serial"]["plan_makespan_p50"]
    parallel_p50 = row["parallel"]["plan_makespan_p50"]
    row["speedup"] = round(serial_p50 / parallel_p50, 3) \
        if parallel_p50 > 0 else None
    return row


@benchmark("parallel_exec", suite="smoke", seed=0, routines=6, width=8)
def parallel_exec(seed: int, routines: int, width: int) -> Dict[str, Any]:
    """Virtual-time speedup of parallel command plans, per model."""
    models = {model: parallel_exec_compare(model, seed=seed,
                                           routines=routines, width=width)
              for model in PARALLEL_EXEC_MODELS}
    return {
        "metrics": {
            "workload": {"name": "fanout", "seed": seed,
                         "routines": routines, "width": width},
            "models": models,
        },
    }


@benchmark("synth_throughput", suite="smoke", seed=11, specs=6,
           routines=24)
def synth_throughput(seed: int, specs: int, routines: int
                     ) -> Dict[str, Any]:
    """Scenario-synthesis engine throughput: generate + run N specs.

    Measures the ``repro hunt`` hot path — compile a :class:`SynthSpec`
    into a workload, run it under EV, score the congruence pressure —
    over a seeded batch of random specs (events/sec across the batch).
    """
    import dataclasses

    from repro.metrics.congruence import temporary_incongruence_events
    from repro.sim.random import RandomStreams, derive_seed
    from repro.workloads.synth import compile_spec, random_spec

    rng = RandomStreams(seed=seed).stream("bench-synth")
    events = 0
    scores = []
    generated_routines = 0
    for index in range(specs):
        spec = dataclasses.replace(
            random_spec(rng, seed=derive_seed(seed, f"bench:{index}")),
            routines=routines, failed_device_pct=0.0)
        workload = compile_spec(spec)
        generated_routines += workload.routine_count
        setup = ExperimentSetup(model="ev", seed=spec.seed,
                                check_final=False)
        result, _report, controller = run_workload(workload, setup)
        events += controller.sim.events_processed
        scores.append(temporary_incongruence_events(result))
    return {
        "events": events,
        "metrics": {
            "specs": specs,
            "routines": generated_routines,
            "incongruence_scores": scores,
        },
    }


@benchmark("fleet_scale_sweep", scales=(1, 10, 100), seed=42)
def fleet_scale_sweep(scales, seed: int) -> Dict[str, Any]:
    """Fleet engine scale-out table: routines, p99 latency, abort rate."""
    from repro.fleet import FleetConfig, FleetEngine

    rows = []
    for homes in scales:
        result = FleetEngine(FleetConfig(
            homes=homes, seed=seed, check_final=False)).run()
        rows.append({
            "homes": homes,
            "routines": result.aggregate["routines"],
            "lat_p99": round(result.aggregate["latency"]["p99"], 6),
            "abort_rate": round(result.aggregate["abort_rate"], 6),
        })
    return {"metrics": {"rows": rows}}


@benchmark("recovery_sweep", repeats_list=(1, 2, 4),
           intervals=(8, 32, 0))
def recovery_sweep(repeats_list, intervals) -> Dict[str, Any]:
    """Recovery cost vs WAL length and checkpoint interval."""
    from repro.bench.suites.recovery_util import crash_and_recover

    cells = [("wal-length", repeats, 32) for repeats in repeats_list]
    cells += [("checkpoint-interval", 4, interval)
              for interval in intervals]
    rows = []
    for sweep, repeats, interval in cells:
        _home, report = crash_and_recover(repeats,
                                          checkpoint_every=interval)
        rows.append({
            "sweep": sweep, "repeats": repeats,
            "checkpoint_every": interval,
            "wal_records": report.wal_records,
            "replayed_events": report.replayed_events,
            "replayed_records": report.replayed_records,
            "checkpoints_verified": report.checkpoints_verified,
            "recovery_ms": round(report.wall_s * 1e3, 3),
        })
    # recovery_ms is wall clock: split it out of the deterministic rows.
    deterministic = [{k: v for k, v in row.items() if k != "recovery_ms"}
                     for row in rows]
    return {"metrics": {"rows": deterministic},
            "timing": {"rows": rows}}
