"""Smoke-suite benchmarks: the fast, CI-gated performance entries.

These are the hot-path probes — the simulator dispatch loop, the fleet
engine, parallel plan execution, scheduler insertion, durable-hub
recovery and checkpoint capture.  Each runs in well under a second per iteration so the CI
perf job stays cheap.
"""

import functools
from typing import Any, Dict

from repro.bench.registry import benchmark
from repro.core.controller import ControllerConfig
from repro.experiments.figures import fig02_example, fig15d_insertion_time
from repro.experiments.runner import ExperimentSetup, run_workload
from repro.workloads.fanout import fanout_scenario

PARALLEL_EXEC_MODELS = ("wv", "gsv", "psv", "ev", "occ")


@benchmark("fleet_scale", suite="smoke", homes=100, seed=42)
def fleet_scale(homes: int, seed: int) -> Dict[str, Any]:
    """Fleet engine throughput: N heterogeneous homes, serial backend."""
    from repro.fleet import FleetConfig, FleetEngine

    result = FleetEngine(FleetConfig(
        homes=homes, seed=seed, backend="serial",
        # The scale benchmark measures engine throughput; the O(n!)-ish
        # final-serializability search is benchmarked elsewhere.
        check_final=False)).run()
    aggregate = result.aggregate
    return {
        "homes": homes,
        "virtual_s": aggregate["makespan_mean"],
        "latency_p50": aggregate["latency"]["p50"],
        "latency_p95": aggregate["latency"]["p95"],
        "metrics": {
            "routines": aggregate["routines"],
            "committed": aggregate["committed"],
            "abort_rate": round(aggregate["abort_rate"], 6),
            "latency_p99": round(aggregate["latency"]["p99"], 6),
            "makespan_max": round(aggregate["makespan_max"], 6),
        },
    }


@benchmark("fleet_scale_process", suite="smoke", homes=100, seed=42,
           chunk=0)
def fleet_scale_process(homes: int, seed: int, chunk: int
                        ) -> Dict[str, Any]:
    """Fleet engine throughput on the process pool (persistent workers,
    one-time context broadcast, compact tuple chunks).

    Simulator events fire in the worker processes, so only ``homes``
    (and therefore homes/sec) is measurable from the parent.  Worker
    count follows the machine (one per CPU) — the recorded floor is
    machine-dependent; see docs/fleet-performance.md.
    """
    from repro.fleet import FleetConfig, FleetEngine

    result = FleetEngine(FleetConfig(
        homes=homes, seed=seed, backend="process", chunk=chunk,
        check_final=False)).run()
    aggregate = result.aggregate
    return {
        "homes": homes,
        "virtual_s": aggregate["makespan_mean"],
        "latency_p50": aggregate["latency"]["p50"],
        "latency_p95": aggregate["latency"]["p95"],
        "metrics": {
            "routines": aggregate["routines"],
            "committed": aggregate["committed"],
            "abort_rate": round(aggregate["abort_rate"], 6),
        },
    }


@benchmark("fleet_scale_mp", suite="scale", homes=96, seed=42,
           worker_counts=(1, 2, 4), inner_repeats=2)
def fleet_scale_mp(homes: int, seed: int, worker_counts,
                   inner_repeats: int) -> Dict[str, Any]:
    """Multi-core scaling: homes/s and parallel efficiency vs workers.

    Runs the same fixed fleet at each worker count on the process pool
    with streaming aggregation, interleaving the worker counts across
    ``inner_repeats`` rounds and taking the min wall per count (so
    machine noise hits every count equally).  Two efficiencies are
    reported per count ``k``:

    * ``efficiency_raw``  = speedup(k) / k — the headline parallel
      efficiency; only meaningful when the machine has ≥ k cores.
    * ``efficiency`` = speedup(k) / min(k, cores) — core-normalized;
      identical to ``efficiency_raw`` on a ≥4-core machine, and on
      smaller machines it measures pool overhead (how close k GIL-free
      processes on c cores come to the ideal c-fold speedup).  This is
      the number ``scripts/gate_scaling.py`` gates at ≥ 0.75.

    Wall-clock numbers are machine-dependent, so the whole scaling
    table lives under ``timing`` (excluded from determinism checks);
    ``metrics`` keeps the layout-independent exact counters.
    """
    import time

    from repro.fleet import FleetConfig, FleetEngine
    from repro.fleet.engine import available_cpus

    worker_counts = tuple(worker_counts)
    if not worker_counts or worker_counts[0] != 1:
        raise ValueError("worker_counts must start at 1 (the "
                         "single-worker reference time)")
    cores = available_cpus()
    walls: Dict[int, list] = {count: [] for count in worker_counts}
    aggregate = None
    for _ in range(max(1, inner_repeats)):
        for count in worker_counts:
            config = FleetConfig(
                homes=homes, seed=seed, backend="process",
                workers=count, aggregate="stream", check_final=False)
            started = time.perf_counter()
            result = FleetEngine(config).run()
            walls[count].append(time.perf_counter() - started)
            aggregate = result.aggregate
    best = {count: min(samples) for count, samples in walls.items()}
    reference = best[1]
    scaling = []
    for count in worker_counts:
        speedup = reference / best[count] if best[count] > 0 else 0.0
        scaling.append({
            "workers": count,
            "wall_s": round(best[count], 4),
            "homes_per_sec": round(homes / best[count], 2)
                             if best[count] > 0 else 0.0,
            "speedup": round(speedup, 4),
            "efficiency_raw": round(speedup / count, 4),
            "efficiency": round(speedup / min(count, cores), 4),
        })
    return {
        "homes": homes,
        "metrics": {
            "routines": aggregate["routines"],
            "committed": aggregate["committed"],
            "abort_rate": round(aggregate["abort_rate"], 6),
        },
        "timing": {"cores": cores, "scaling": scaling},
    }


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
        setup = ExperimentSetup(
            model=model, seed=seed, check_final=False,
            config=ControllerConfig(execution=execution))
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


@benchmark("example_timeline", suite="smoke", seed=1)
def example_timeline(seed: int) -> Dict[str, Any]:
    """Fig 2 / Table 1: the five-routine example under GSV/PSV/EV."""
    rows = fig02_example(seed=seed)
    return {"metrics": {"rows": rows}}


@benchmark("scheduler_insertion", suite="smoke",
           routine_sizes=(1, 4, 10))
def scheduler_insertion(routine_sizes) -> Dict[str, Any]:
    """Fig 15d: Timeline (Algorithm 1) placement cost vs routine size.

    Per-insertion milliseconds are wall-clock, so they live under
    ``timing``; the deterministic part is the sweep shape itself.
    """
    rows = fig15d_insertion_time(routine_sizes=tuple(routine_sizes))
    return {
        "metrics": {"routine_sizes": list(routine_sizes),
                    "insertions": len(rows)},
        "timing": {"rows": rows},
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


@functools.lru_cache(maxsize=1)
def _finished_micro_home(routines: int, seed: int):
    """One EV Table-3 micro home run to completion, built once: the
    warmup call pays for the run, the timed calls only for the report."""
    from repro.hub.safehome import SafeHome
    from repro.workloads.micro import MicroParams, generate_microbenchmark

    home = SafeHome(visibility="ev", seed=seed)
    home.load_workload(generate_microbenchmark(
        MicroParams(routines=routines), seed=seed))
    return home.run(), home.initial, home.sim.events_processed


@benchmark("metrics_analyze", suite="smoke", routines=4000, seed=42)
def metrics_analyze(routines: int, seed: int) -> Dict[str, Any]:
    """Cost of a report: ``analyze`` + oracle ``check_run`` on one home
    (``events``: the analysed run's simulator events)."""
    from repro.metrics.collector import analyze
    from repro.metrics.oracle import check_run

    result, initial, events = _finished_micro_home(routines, seed)
    report = analyze(result, initial)
    verdict = check_run(result, initial)
    return {
        "events": events,
        "virtual_s": result.makespan,
        "metrics": {"row": report.row(),
                    "serial_order": len(report.serial_order),
                    "oracle_violations": len(verdict.violations)},
    }


@functools.lru_cache(maxsize=1)
def _finished_durable_home(routines: int, seed: int):
    """One durable EV Table-3 micro home run to completion, built once:
    the warmup call pays for the run, the timed calls only for the
    checkpoints they take on top of its history."""
    from repro.hub.safehome import SafeHome
    from repro.workloads.micro import MicroParams, generate_microbenchmark

    home = SafeHome(visibility="ev", seed=seed, durability=True)
    home.load_workload(generate_microbenchmark(
        MicroParams(routines=routines), seed=seed))
    result = home.run()
    return home, result.makespan, len(home.durability.checkpoints)


@benchmark("checkpoint_capture", suite="smoke", routines=2000, seed=42,
           checkpoints=100)
def checkpoint_capture(routines: int, seed: int,
                       checkpoints: int) -> Dict[str, Any]:
    """Cost of a checkpoint at the end of a long history: N
    ``take_checkpoint`` calls on one finished durable home (``events``:
    the checkpoints taken, so events/sec is checkpoints per second)."""
    home, makespan, run_checkpoints = _finished_durable_home(routines, seed)
    for _ in range(checkpoints):
        checkpoint = home.durability.take_checkpoint()
    return {
        "events": checkpoints,
        "virtual_s": makespan,
        "metrics": {"run_checkpoints": run_checkpoints,
                    "digest": checkpoint.digest},
    }


@benchmark("recovery_replay", suite="smoke", repeats_workload=2,
           checkpoint_every=32)
def recovery_replay(repeats_workload: int,
                    checkpoint_every: int) -> Dict[str, Any]:
    """Durable-hub crash at the end of history, verified replay."""
    from repro.bench.suites.recovery_util import crash_and_recover

    _home, report = crash_and_recover(
        repeats_workload, checkpoint_every=checkpoint_every)
    return {
        "metrics": {
            "wal_records": report.wal_records,
            "replayed_events": report.replayed_events,
            "replayed_records": report.replayed_records,
            "checkpoints_verified": report.checkpoints_verified,
        },
        "timing": {"recovery_ms": round(report.wall_s * 1e3, 3)},
    }


@benchmark("serve_latency", suite="smoke", tenants=8, per_tenant=40,
           seed=7)
def serve_latency(tenants: int, per_tenant: int,
                  seed: int) -> Dict[str, Any]:
    """Service-mode hub throughput: virtual-paced closed-loop serving.

    One home, ``tenants`` closed-loop clients each submitting
    ``per_tenant`` seeded menu picks through admission control; the
    deterministic metrics double as a drift alarm on service latency.
    """
    from repro.serve import (ServeConfig, ServeHub, build_serve_home,
                             run_closed_loop)

    hub = ServeHub(build_serve_home(seed=seed), ServeConfig())
    for i in range(tenants):
        hub.add_tenant(f"t{i}", weight=1 + (i % 2))
    run_closed_loop(hub, per_tenant=per_tenant, seed=seed)
    status = hub.status()
    total = status["latency"]["total"]
    return {
        "events": sum(row["events_processed"]
                      for row in status["homes"].values()),
        "virtual_s": max(row["virtual_now"]
                         for row in status["homes"].values()),
        "metrics": {
            "routines": tenants * per_tenant,
            "committed": sum(row["committed"]
                             for row in status["tenants"].values()),
            "latency_p50": total["p50"],
            "latency_p95": total["p95"],
            "latency_p99": total["p99"],
            "max_queue_depth": max(row["max_depth"]
                                   for row in status["tenants"].values()),
        },
    }
