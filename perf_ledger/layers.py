"""Turn pass results, harness samples and trace aggregates into the
named metrics of BENCHMARK.json.

``workload_metrics`` are host-time and exact numbers measured with
tracing off that exist only on some workloads (recovery time, WAL
read-back rate, real-time factor, ...).  ``layer_metrics`` adds what
only the traced passes know: counts and self times at the layer
boundaries, and the cost-attribution table.  A metric a workload
does not exercise reads 0 there, which is itself the statement that
the workload bypasses that layer.
"""

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from perf_ledger.trace import LAYERS, Tracer
from perf_ledger.workloads import EXECUTIONS, MODELS, PassResult

Metric = Tuple[float, str]
Passes = List[Tuple[float, PassResult]]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0 when empty."""
    if not values:
        return 0.0
    data = sorted(values)
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def fast_rate(values: Sequence[float]) -> float:
    """The per-pass rate this code reaches when the sandbox interferes
    least: the best pass.  Interference from neighbours on the shared
    cores only ever slows a pass, so the best of a fixed number of
    passes is far steadier from run to run than their median (README,
    "Run protocol")."""
    return max(values, default=0.0)


def quick_time(values: Sequence[float]) -> float:
    """The matching estimate for a per-pass duration: the shortest."""
    return min(values, default=0.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def latency_quantile(out: PassResult, q: int) -> float:
    """Virtual routine latency of one pass: the mean of its homes'
    own percentiles (every home weighs in, so the figure moves smoothly
    with the seed), or the program's own pooled figure (fleet
    aggregate, serve report)."""
    index = 0 if q == 50 else 1
    if out.home_latency:
        return statistics.fmean(pair[index] for pair in out.home_latency)
    return (out.lat_p50, out.lat_p95)[index]


def _count(passes: Passes, key: str) -> float:
    """A per-pass exact count (identical in every pass)."""
    return passes[-1][1].counts.get(key, 0.0)


def workload_metrics(name: str, judged: Passes, untraced: Passes, led,
                     ops_failed: int) -> Dict[str, Metric]:
    """End-to-end numbers of single workloads and the exact (virtual
    time) numbers; measured with tracing off.  ``judged`` are the
    passes best-pass figures come from (the same number in every run),
    ``untraced`` all of them; ``ops_failed`` counts, for one pass, the
    operations that failed and the homes the congruence oracle faults."""
    last = untraced[-1][1]
    samples = led.samples.get("untraced", {})
    metrics: Dict[str, Metric] = {
        "harness.routines_per_s_p50": (quantile(
            [out.routines / wall for wall, out in untraced], 50), "1/s"),
        "harness.passes": (len(untraced), "count"),
        "virt.latency_p50_s": (latency_quantile(last, 50), "virt_s"),
        "virt.latency_p95_s": (latency_quantile(last, 95), "virt_s"),
        "virt.abort_rate": (ratio(last.aborted, last.finished), "ratio"),
        "virt.temp_incongruence": (
            ratio(sum(last.temp_incongruence),
                  len(last.temp_incongruence)), "ratio"),
        "ops.failed_share": (ratio(ops_failed, last.ops), "ratio"),
        "sim.events": (last.events, "count"),
        "sim.events_per_routine": (ratio(last.events, last.routines),
                                   "ratio"),
    }
    if name in ("fleet_mix", "fleet_process", "durable_fleet"):
        metrics["fleet.homes_per_s"] = (
            fast_rate([out.homes / wall for wall, out in judged]), "1/s")
    if name == "serve_closed":
        metrics["serve.realtime_factor"] = (
            fast_rate([out.counts["virtual_makespan"] / wall
                       for wall, out in judged]), "x")
        metrics["serve.rejections"] = (last.failed, "count")
        metrics["serve.max_queue_depth"] = (
            _count(untraced, "max_queue_depth"), "count")
        host = [s * 1e3 for s in samples.get("serve.ticket_host", ())]
        metrics["serve.ticket_host_ms_p50"] = (quantile(host, 50), "ms")
        metrics["serve.ticket_host_ms_p99"] = (quantile(host, 99), "ms")
        status = samples.get("serve.ServeHub.status", ())
        metrics["serve.status_ms_p50"] = (quantile(status, 50) * 1e3, "ms")
    if name in ("durable_home", "durable_fleet"):
        reads = samples.get("durability.scan_wal_dir") \
            or samples.get("fleet.load_spooled_home", ())
        read_mb = _count(untraced, "read_bytes") * len(untraced) / 1e6
        metrics["durability.wal_read_mb_per_s"] = (
            ratio(read_mb, sum(reads)), "MB/s")
        metrics["durability.wal_bytes_per_routine"] = (
            ratio(_count(untraced, "wal_bytes"), last.routines), "B")
        metrics["durability.bytes_per_event"] = (
            ratio(_count(untraced, "wal_bytes"), last.events), "B")
    if name == "durable_home":
        recoveries = [s * 1e3 for s in samples.get("durability.recover", ())]
        metrics["durability.recover_ms_p50"] = (quantile(recoveries, 50),
                                                "ms")
        metrics["durability.recover_ms_max"] = (
            max(recoveries, default=0.0), "ms")
        metrics["durability.replayed_events_per_s"] = (
            ratio(_count(untraced, "replayed_events") * len(untraced),
                  sum(recoveries) / 1e3), "1/s")
        metrics["durability.checkpoints"] = (
            _count(untraced, "checkpoints"), "count")
    if name == "durable_fleet":
        loads = samples.get("fleet.load_spooled_home", ())
        replays = samples.get("fleet.replay_spooled_home", ())
        metrics["fleet.spool_load_us_p50"] = (quantile(loads, 50) * 1e6, "us")
        metrics["fleet.spool_replay_ms_p50"] = (
            quantile(replays, 50) * 1e3, "ms")
        metrics["fleet.spool_bytes_per_home"] = (
            ratio(_count(untraced, "spool_bytes"), last.homes), "B")
    if name == "home_ev":
        per_event = {
            shape: quick_time([ratio(out.counts[f"wall_{shape}"] * 1e6,
                                     out.counts[f"events_{shape}"])
                               for _wall, out in untraced])
            for shape in "AB"}
        metrics["core.ev.base_us_per_event"] = (per_event["A"], "us")
        metrics["core.ev.highrho_slowdown_x"] = (
            ratio(per_event["B"], per_event["A"]), "x")
    if name == "model_spectrum":
        for model in MODELS:
            for execution in EXECUTIONS:
                key = f"{model}.{execution}"
                metrics[f"core.{key}.us_per_routine"] = (quick_time([
                    ratio(out.counts[f"wall.{key}"] * 1e6,
                          out.counts[f"routines.{key}"])
                    for _wall, out in untraced]), "us")
            metrics[f"core.{model}.virt_latency_p50_s"] = (
                _count(untraced, f"lat_p50.{model}.serial"), "virt_s")
        metrics["core.occ.retry_ratio"] = (
            ratio(_count(untraced, "occ_aborted"),
                  _count(untraced, "occ_committed")), "ratio")
    return metrics


def layer_metrics(workload, untraced: Passes, traced: Passes, led,
                  tracer: Tracer, verdict, extras: Dict[str, float],
                  own: Dict[str, Metric]
                  ) -> Tuple[Dict[str, Metric], List[Dict[str, Any]]]:
    """Every per-layer metric this workload yields, plus the
    cost-attribution table (one row per layer)."""
    metrics = dict(own)
    passes = len(traced)
    traced_wall = sum(wall for wall, _out in traced)
    events = sum(out.events for _wall, out in traced)
    routines = sum(out.routines for _wall, out in traced)
    by_name = tracer.by_name()
    layer_self = tracer.layer_self_ns()

    def count(span: str) -> int:
        return by_name.get(span, (0, 0, 0))[0]

    def total_s(*spans: str) -> float:
        return sum(by_name.get(span, (0, 0, 0))[1] for span in spans) / 1e9

    def self_us(*spans: str) -> float:
        return sum(by_name.get(span, (0, 0, 0))[2] for span in spans) / 1e3

    def sample_us(span: str, q: float) -> float:
        return quantile(tracer.samples.get(span, ()), q) / 1e3

    def put(metric: str, value: float, unit: str) -> None:
        metrics[metric] = (value, unit)

    untraced_wall = quick_time([wall for wall, _out in untraced])
    put("trace.overhead_x",
        ratio(quick_time([wall for wall, _out in traced]), untraced_wall),
        "x")
    put("trace.spans", len(tracer.spans), "count")

    # sim / devices / core: per-event boundaries.
    put("sim.events_per_s", ratio(events, total_s("sim.Simulator.run")),
        "1/s")
    put("sim.self_us_per_event", ratio(layer_self["sim"] / 1e3, events), "us")
    issues = count("devices.Driver.issue")
    put("devices.issues", ratio(issues, passes), "count")
    put("devices.timeouts", ratio(count("devices.Driver._timed_out"),
                                  passes), "count")
    put("devices.self_us_per_issue",
        ratio(layer_self["devices"] / 1e3, issues), "us")
    put("devices.registry_clear_us_p50",
        sample_us("devices.DeviceRegistry.clear", 50), "us")
    put("core.submit_us_p50", sample_us("core.Controller.submit", 50), "us")
    put("core.self_us_per_event", ratio(layer_self["core"] / 1e3, events),
        "us")
    acquires = count("core.LockTable.acquire")
    put("core.locks.acquires", ratio(acquires, passes), "count")
    put("core.locks.self_us_per_acquire",
        ratio(self_us("core.LockTable.acquire", "core.LockTable.release"),
              acquires), "us")
    place = "core.TimelineScheduler.on_arrive"
    put("core.scheduler.place_us_p50", sample_us(place, 50), "us")
    put("core.scheduler.place_us_p99", sample_us(place, 99), "us")
    put("core.lineage.acquire_success_ratio",
        ratio(tracer.sums.get("core.Lineage.try_acquire", 0),
              count("core.Lineage.try_acquire")), "ratio")

    # hub: per-home boundaries.
    for metric, span in (("build", "hub.SafeHome.build"),
                         ("load", "hub.SafeHome.load_workload"),
                         ("run", "hub.SafeHome.run"),
                         ("result", "core.RunResult.from_controller"),
                         ("report", "hub.SafeHome.report")):
        put(f"hub.{metric}_us_p50", sample_us(span, 50), "us")

    # metrics / workloads.
    put("metrics.analyze_us_per_routine",
        ratio(total_s("metrics.analyze") * 1e6, routines), "us")
    put("metrics.analyze_share", ratio(total_s("metrics.analyze"),
                                       traced_wall), "ratio")
    put("metrics.aggregate_s",
        ratio(total_s("metrics.aggregate_homes",
                      "metrics.merge_accumulators",
                      "metrics.accumulate_rows"), passes), "s")
    oracle_s = sum(led.samples.get("verify", {}).get(
        "metrics.oracle.check_run", ()))
    put("metrics.oracle_us_per_routine",
        ratio(oracle_s * 1e6, verdict.oracle_routines), "us")
    put("metrics.oracle_homes_checked", verdict.oracle_checked, "count")
    put("metrics.oracle_violations", len(verdict.violations), "count")
    put("workloads.build_us_p50",
        sample_us("workloads.build_fleet_workload", 50), "us")
    put("workloads.micro_gen_s", sum(led.samples.get("setup", {}).get(
        "workloads.generate_microbenchmark", ())), "s")

    # durability: WAL, checkpoints, storage.
    records = count("durability.DurabilityManager.record_input") \
        + tracer.sums.get("durability.WriteAheadLog.flush", 0)
    put("durability.records", ratio(records, passes), "count")
    put("durability.records_per_event", ratio(records, events), "ratio")
    put("durability.wal_self_us_per_record", ratio(self_us(
        "durability.DurabilityManager.record_input",
        "durability.DurabilityManager.observe",
        "durability.WriteAheadLog.flush"), records), "us")
    checkpoint = "durability.DurabilityManager.take_checkpoint"
    if "durability.checkpoints" not in metrics:
        put("durability.checkpoints", ratio(count(checkpoint), passes),
            "count")
    put("durability.checkpoint_us_p50", sample_us(checkpoint, 50), "us")
    put("durability.checkpoint_us_p99", sample_us(checkpoint, 99), "us")
    put("durability.checkpoint_share",
        ratio(total_s(checkpoint), traced_wall), "ratio")
    appended = count("durability.SegmentedWalWriter.append")
    put("durability.storage_self_us_per_record", ratio(self_us(
        "durability.SegmentedWalWriter.append",
        "durability.SegmentedWalWriter.seal",
        "durability.SegmentedWalWriter.flush"), appended), "us")
    put("durability.flushes",
        ratio(count("durability.SegmentedWalWriter.flush"), passes), "count")
    if "twin_run_s" in extras:
        durable_run = quick_time([out.counts["run_wall"]
                                  for _wall, out in untraced])
        pass_events = untraced[-1][1].events
        put("durability.twin_us_per_event",
            ratio(extras["twin_run_s"] * 1e6, pass_events), "us")
        put("durability.added_us_per_event",
            ratio((durable_run - extras["twin_run_s"]) * 1e6, pass_events),
            "us")
        put("durability.slowdown_x",
            ratio(durable_run, extras["twin_run_s"]), "x")
    if "durability.recover_ms_p50" not in metrics:
        recoveries = [ns / 1e6 for ns in
                      tracer.samples.get("hub.SafeHome.recover", ())]
        put("durability.recover_ms_p50", quantile(recoveries, 50), "ms")
        put("durability.recover_ms_max", max(recoveries, default=0.0), "ms")

    # fleet: tasks, pool, spool.
    task = "fleet.HomeFactory.run_task"
    put("fleet.task_us_p50", sample_us(task, 50), "us")
    put("fleet.task_us_p99", sample_us(task, 99), "us")
    put("fleet.engine_self_s",
        ratio(self_us("fleet.FleetEngine.run") / 1e6, passes), "s")
    put("fleet.pool_run_s", ratio(total_s("fleet.pool.run"), passes), "s")
    if hasattr(workload, "config"):
        config = workload.config
        put("fleet.chunks", -(-config.homes // config.effective_chunk()),
            "count")
    if "serial_twin_s" in extras:
        homes = untraced[-1][1].homes
        put("fleet.serial_twin_homes_per_s",
            ratio(homes, extras["serial_twin_s"]), "1/s")
        speedup = ratio(extras["serial_twin_s"], untraced_wall)
        put("fleet.mp_speedup_x", speedup, "x")
        put("fleet.mp_efficiency", ratio(speedup, extras["workers"]),
            "ratio")
    put("fleet.spool_write_us_p50", sample_us("fleet.SpoolWriter.write", 50)
        + sample_us("fleet.home_wal_record", 50), "us")
    put("fleet.spool_merge_s", ratio(total_s("fleet.merge_spool"), passes),
        "s")

    # serve: admission, loop, SLO tracker.
    tickets = count("serve.ServeHub.submit")
    submit = "serve.ServeHub.submit"
    put("serve.submit_us_p50", sample_us(submit, 50), "us")
    put("serve.submit_us_p99", sample_us(submit, 99), "us")
    put("serve.admit_us_per_ticket", ratio(
        total_s("serve.AdmissionControl.drain") * 1e6, tickets), "us")
    put("serve.loop_self_us_per_ticket", ratio(
        self_us("serve.ServeHub.serve_until_idle"), tickets), "us")
    put("serve.slo_add_us_p50", sample_us("serve.LatencyTracker.add", 50),
        "us")
    pumps = count("serve.RealTimeDriver.pump")
    put("serve.pump_calls", ratio(pumps, passes), "count")
    put("serve.events_per_pump", ratio(
        tracer.sums.get("serve.RealTimeDriver.pump", 0), pumps), "ratio")

    # The cost-attribution table: layer self time sums to the traced
    # wall by construction (every frame's self time is counted once).
    table = []
    for layer in LAYERS + ("harness",):
        self_s = layer_self.get(layer, 0) / 1e9
        put(f"share.{layer}", ratio(self_s, traced_wall), "ratio")
        table.append({"layer": layer, "self_s": self_s,
                      "share": ratio(self_s, traced_wall),
                      "self_us_per_event": ratio(self_s * 1e6, events)})
    accounted = sum(row["self_s"] for row in table)
    table.append({"layer": "total", "self_s": accounted,
                  "share": ratio(accounted, traced_wall),
                  "self_us_per_event": ratio(accounted * 1e6, events)})
    return metrics, table
