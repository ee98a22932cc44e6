"""The seven ledger workloads: seeded inputs, one timed pass, verification.

Each workload stresses a different layer (perf_ledger/README.md has the
"why" of every one).  A workload generates its inputs once from the
seed (``setup``), then ``run_pass`` replays the identical inputs as
often as the run length allows and ``verify`` checks the last pass
untimed.  All sizes are for ``scale == 1``; ``--scale`` exists for the
ledger's own tests only.

Load is closed-loop everywhere: a fleet worker starts its next home
when the previous one finished, the micro homes run rho closed-loop
routine streams, and every serve tenant keeps one ticket outstanding.
"""

import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.fleet.engine import FleetConfig, FleetEngine
from repro.fleet.sharding import HomeSpec
from repro.fleet.spool import (MERGED_NAME, load_spooled_home,
                               replay_spooled_home)
from repro.fleet.worker import run_home
from repro.hub.durability.storage import list_segments, scan_wal_dir
from repro.hub.safehome import SafeHome
from repro.metrics.oracle import check_run
from repro.serve.hub import ServeConfig, ServeHub
from repro.serve.loadgen import build_serve_home, run_closed_loop
from repro.sim.engine import total_events_processed
from repro.workloads.micro import MicroParams, generate_microbenchmark

MODELS = ("wv", "gsv", "psv", "ev", "occ")
EXECUTIONS = ("serial", "parallel")

#: One fleet home in this many is re-run through ``run_home`` and the
#: congruence oracle during verification.
FLEET_ORACLE_SAMPLE = 25


@dataclass
class PassResult:
    """What one timed pass produced (everything but its wall time)."""

    routines: int = 0               # input routines brought to an end
    homes: int = 0
    ops: int = 0                    # operations attempted (homes, ...)
    failed: int = 0                 # ... of which failed
    outputs: List[str] = field(default_factory=list)    # digest input
    #: Virtual routine latency: per-home (p50, p95) pairs, averaged
    #: over the homes of a pass — or the program's own pooled figures.
    home_latency: List[tuple] = field(default_factory=list)
    lat_p50: float = 0.0
    lat_p95: float = 0.0
    finished: int = 0               # runs incl. retries (abort-rate base)
    aborted: int = 0
    temp_incongruence: List[float] = field(default_factory=list)
    events: int = 0                 # simulator events in this process
    counts: Counter = field(default_factory=Counter)  # exact or summed
    keep: Any = None                # handed to verify()


@dataclass
class Verdict:
    """Outcome of the untimed verification of the last pass."""

    hard_errors: List[str] = field(default_factory=list)
    oracle_checked: int = 0
    oracle_routines: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)


def sub_seed(seed: int, index: int) -> int:
    """A 31-bit child seed; the program only ever sees these."""
    return random.Random(seed * 1000003 + index).randrange(1, 2 ** 31)


def scaled(value: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(value * scale)))


def _absorb_report(out: PassResult, workload, report) -> None:
    # Useful work is the user's input: retries the program adds (OCC)
    # must not read as extra throughput.
    out.routines += workload.routine_count
    out.finished += report.routines
    out.aborted += report.aborted
    out.home_latency.append((report.latency["p50"], report.latency["p95"]))
    out.temp_incongruence.append(report.temporary_incongruence)
    out.outputs.append(json.dumps(report.row(), sort_keys=True))


def _absorb_fleet(out: PassResult, result) -> None:
    """A fleet run's rows and pooled aggregate."""
    aggregate = result.aggregate
    out.homes = out.ops = len(result.rows)
    out.routines = out.finished = aggregate["routines"]
    out.aborted = aggregate["aborted"]
    out.lat_p50 = aggregate["latency"]["p50"]
    out.lat_p95 = aggregate["latency"]["p95"]
    out.temp_incongruence = [aggregate["temporary_incongruence_mean"]]
    out.outputs = [json.dumps(aggregate, sort_keys=True)]


def _oracle(verdict: Verdict, label: str, result, initial) -> None:
    report = check_run(result, initial)
    verdict.oracle_checked += 1
    verdict.oracle_routines += len(result.runs)
    for violation in report.violations:
        verdict.violations.append(dict(violation.to_dict(), home=label))


class Workload:
    """Base: subclasses set ``name`` and implement the three phases."""

    name = ""
    #: Client count of the closed loop (README / spec.json state it).
    clients = 1

    def setup(self, led, seed: int, scale: float) -> None:
        raise NotImplementedError

    def run_pass(self, led) -> PassResult:
        raise NotImplementedError

    def verify(self, led, last: PassResult) -> Verdict:
        raise NotImplementedError

    def trace_extras(self, led) -> Dict[str, float]:
        """Untimed twin measurements a traced run adds (the bases of
        cross-configuration ratios); none by default."""
        return {}


# -- fleet ---------------------------------------------------------------------

class FleetMix(Workload):
    """Many small homes on the serial backend (per-home fixed costs)."""

    name = "fleet_mix"
    homes = 1200
    config_overrides: Dict[str, Any] = dict(
        backend="serial", aggregate="exact")

    def setup(self, led, seed, scale):
        self.config = FleetConfig(
            homes=scaled(self.homes, scale, floor=6), seed=seed,
            check_final=False, **self.config_overrides)

    def run_pass(self, led):
        engine = FleetEngine(self.config)
        before = total_events_processed()
        result = led.call("fleet.FleetEngine.run", engine.run)
        out = PassResult(events=total_events_processed() - before)
        _absorb_fleet(out, result)
        out.keep = (engine, result)
        return out

    def verify(self, led, last):
        engine, result = last.keep
        verdict = Verdict()
        if len(result.rows) != self.config.homes:
            verdict.hard_errors.append(
                f"{len(result.rows)} rows for {self.config.homes} homes")
        specs = engine.specs()
        for spec in specs[::FLEET_ORACLE_SAMPLE]:
            self._recheck(led, verdict, spec, result.rows[spec.home_id])
        return verdict

    def _recheck(self, led, verdict: Verdict, spec: HomeSpec,
                 fleet_row: Dict[str, Any]) -> None:
        """Re-run one home outside the fleet: same row, oracle-clean."""
        home = SafeHome(visibility=spec.model, scheduler=spec.scheduler,
                        execution=spec.execution, seed=spec.seed,
                        durability=bool(spec.crashes))
        row = run_home(spec, home=home)
        for key, value in row.items():
            if key != "latencies" and fleet_row.get(key) != value:
                verdict.hard_errors.append(
                    f"home {spec.home_id}: fleet row {key}="
                    f"{fleet_row.get(key)!r}, standalone re-run {value!r}")
        led.call("metrics.oracle.check_run", _oracle, verdict,
                 f"home-{spec.home_id}", home.last_result, home.initial)


class FleetProcess(FleetMix):
    """The same homes through the 2-worker process pool."""

    name = "fleet_process"
    homes = 2400
    clients = 2
    config_overrides = dict(backend="process", workers=2,
                            aggregate="stream", chunk=50,
                            transport="pickle")

    def setup(self, led, seed, scale):
        super().setup(led, seed, scale)
        workers = min(2, os.cpu_count() or 1)
        self.config.workers = workers
        self.config.chunk = min(self.config_overrides["chunk"],
                                max(1, self.config.homes // (2 * workers)))
        #: Traced runs also time the same homes serially, so the
        #: multi-core speed-up has its base in the same process.
        self.serial_twin = FleetConfig(
            homes=self.config.homes, seed=seed, check_final=False,
            backend="serial", aggregate="stream", chunk=self.config.chunk)

    def trace_extras(self, led):
        walls = []
        for _ in range(2):      # as many as the untraced passes it divides
            started = time.perf_counter()
            FleetEngine(self.serial_twin).run()
            walls.append(time.perf_counter() - started)
        return {"serial_twin_s": min(walls), "workers": self.config.workers}


# -- single homes --------------------------------------------------------------

def _run_micro_home(workload, model: str, execution: str, seed: int):
    """Build, load, run and report one non-durable micro home."""
    home = SafeHome(visibility=model, scheduler="timeline",
                    execution=execution, seed=seed)
    home.load_workload(workload)
    result = home.run()
    report = home.report(check_final=False)
    return home, result, report


class HomeEv(Workload):
    """Large Table-3 micro homes under EV: paper defaults (A) and the
    high-concurrency, high-contention regime (B)."""

    name = "home_ev"
    clients = 32
    shapes = (
        ("A", dict(routines=4000, concurrency=4, zipf_alpha=0.05)),
        ("B", dict(routines=2000, concurrency=32, zipf_alpha=0.8)),
    )

    def setup(self, led, seed, scale):
        self.inputs = []
        for index, (shape, params) in enumerate(self.shapes):
            params = dict(params,
                          routines=scaled(params["routines"], scale, 20))
            home_seed = sub_seed(seed, index)
            workload = led.call(
                "workloads.generate_microbenchmark",
                generate_microbenchmark, MicroParams(**params),
                seed=home_seed)
            self.inputs.append((shape, home_seed, workload))

    def run_pass(self, led):
        out = PassResult()
        kept = []
        before = total_events_processed()
        for shape, seed, workload in self.inputs:
            events_before = total_events_processed()
            started = time.perf_counter()
            home, result, report = _run_micro_home(
                workload, "ev", "serial", seed)
            wall = time.perf_counter() - started
            out.counts[f"wall_{shape}"] += wall
            out.counts[f"events_{shape}"] += \
                total_events_processed() - events_before
            _absorb_report(out, workload, report)
            kept.append((shape, result, home.initial))
        out.events = total_events_processed() - before
        out.homes = out.ops = len(self.inputs)
        out.keep = kept
        return out

    def verify(self, led, last):
        verdict = Verdict()
        for label, result, initial in last.keep:
            led.call("metrics.oracle.check_run", _oracle, verdict, label,
                     result, initial)
        return verdict


class ModelSpectrum(Workload):
    """One input through every visibility model and plan strategy."""

    name = "model_spectrum"
    clients = 8
    params = dict(routines=1000, concurrency=8, zipf_alpha=0.8)

    def setup(self, led, seed, scale):
        params = dict(self.params,
                      routines=scaled(self.params["routines"], scale, 20))
        self.home_seed = sub_seed(seed, 0)
        self.input = led.call(
            "workloads.generate_microbenchmark", generate_microbenchmark,
            MicroParams(**params), seed=self.home_seed)

    def run_pass(self, led):
        out = PassResult()
        kept = []
        counts = out.counts
        before = total_events_processed()
        for model in MODELS:
            for execution in EXECUTIONS:
                key = f"{model}.{execution}"
                started = time.perf_counter()
                home, result, report = _run_micro_home(
                    self.input, model, execution, self.home_seed)
                counts[f"wall.{key}"] = time.perf_counter() - started
                _absorb_report(out, self.input, report)
                counts[f"routines.{key}"] = self.input.routine_count
                counts[f"lat_p50.{key}"] = report.latency["p50"]
                if model == "occ":
                    counts["occ_aborted"] += report.aborted
                    counts["occ_committed"] += report.committed
                kept.append((key, result, home.initial))
        out.events = total_events_processed() - before
        out.homes = out.ops = len(kept)
        out.keep = kept
        return out

    verify = HomeEv.verify


# -- durability ----------------------------------------------------------------

def _dir_bytes(path: str, names: List[str]) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in names)


class DurableHome(Workload):
    """Durable EV homes on disk: run, crash, recover, run on, scan."""

    name = "durable_home"
    clients = 4
    home_count = 4
    params = dict(routines=400, concurrency=4)
    crash_fraction = 0.6

    def setup(self, led, seed, scale):
        params = dict(self.params,
                      routines=scaled(self.params["routines"], scale, 20))
        self.inputs = []
        for index in range(self.home_count):
            home_seed = sub_seed(seed, index)
            workload = led.call(
                "workloads.generate_microbenchmark",
                generate_microbenchmark, MicroParams(**params),
                seed=home_seed)
            # The crash point is a share of the non-durable event count
            # of the same input, so it is set up here, untimed.
            twin = SafeHome(visibility="ev", seed=home_seed)
            twin.load_workload(workload)
            twin.run()
            crash_after = max(1, int(twin.sim.events_processed
                                     * self.crash_fraction))
            self.inputs.append((home_seed, workload, crash_after))

    def run_pass(self, led):
        out = PassResult()
        root = led.tmpdir()
        kept = []
        dirs = []
        before = total_events_processed()
        for index, (seed, workload, crash_after) in enumerate(self.inputs):
            wal_dir = os.path.join(root, f"h{index}")
            dirs.append(wal_dir)
            home = SafeHome(visibility="ev", scheduler="timeline",
                            execution="serial", seed=seed,
                            durability=True, wal_dir=wal_dir)
            home.load_workload(workload)
            home.crash(after_events=crash_after)
            started = time.perf_counter()
            home.run()
            run_wall = time.perf_counter() - started
            out.ops += 1
            if not home.crashed:
                out.failed += 1
            else:
                recovery = led.call("durability.recover", home.recover,
                                    mode="replay")
                out.counts["replayed_events"] += recovery.replayed_events
            started = time.perf_counter()
            result = home.run()
            run_wall += time.perf_counter() - started
            out.counts["run_wall"] += run_wall
            report = home.report(check_final=False)
            home.close_wal()
            _absorb_report(out, workload, report)
            out.counts["wal_records"] += len(home.wal.records)
            out.counts["checkpoints"] += len(home.durability.checkpoints)
            kept.append((f"h{index}", result, home.initial))
        run_events = total_events_processed() - before
        scans = []
        for wal_dir in dirs:
            out.ops += 1
            scans.append(led.call("durability.scan_wal_dir", scan_wal_dir,
                                  wal_dir))
        out.events = run_events
        out.homes = len(self.inputs)
        out.counts["wal_bytes"] = sum(
            _dir_bytes(d, list_segments(d)) for d in dirs)
        out.counts["read_bytes"] = out.counts["wal_bytes"]
        for scan in scans:
            out.outputs.append(
                f"{scan.status}:{scan.clean_close}:{len(scan.records)}")
        out.keep = (kept, scans)
        return out

    def verify(self, led, last):
        kept, scans = last.keep
        verdict = Verdict()
        for index, scan in enumerate(scans):
            if scan.status != "clean" or not scan.clean_close:
                verdict.hard_errors.append(
                    f"h{index}: cleanly closed WAL scans as "
                    f"{scan.status} (clean_close={scan.clean_close})")
        for label, result, initial in kept:
            led.call("metrics.oracle.check_run", _oracle, verdict, label,
                     result, initial)
        return verdict

    def trace_extras(self, led):
        """Wall time of ``run()`` on the non-durable twins of this
        workload's homes (the base of ``durability.slowdown_x``)."""
        total = 0.0
        for seed, workload, _crash_after in self.inputs:
            home = SafeHome(visibility="ev", scheduler="timeline",
                            execution="serial", seed=seed)
            home.load_workload(workload)
            started = time.perf_counter()
            home.run()
            total += time.perf_counter() - started
        return {"twin_run_s": total}


class DurableFleet(Workload):
    """Durable small homes with crashes, spooled, then read back."""

    name = "durable_fleet"
    homes = 150
    replay_every = 10

    def setup(self, led, seed, scale):
        self.homes_scaled = scaled(self.homes, scale, floor=6)
        self.seed = seed

    def run_pass(self, led):
        wal_dir = led.tmpdir()
        config = FleetConfig(
            homes=self.homes_scaled, seed=self.seed, backend="serial",
            crashes=2, recovery="replay", wal_dir=wal_dir)
        before = total_events_processed()
        result = led.call("fleet.FleetEngine.run", FleetEngine(config).run)
        out = PassResult(events=total_events_processed() - before)
        _absorb_fleet(out, result)
        out.counts["hub_crashes"] = sum(
            row.get("hub_crashes", 0) for row in result.rows)
        out.counts["wal_bytes"] = _dir_bytes(wal_dir, os.listdir(wal_dir))
        merged_bytes = os.path.getsize(os.path.join(wal_dir, MERGED_NAME))
        out.counts["spool_bytes"] = merged_bytes
        records = []
        for home_id in range(out.homes):
            out.ops += 1
            records.append(led.call("fleet.load_spooled_home",
                                    load_spooled_home, wal_dir, home_id))
        out.counts["read_bytes"] = merged_bytes
        replayed = []
        for record in records[::self.replay_every]:
            out.ops += 1
            home = led.call("fleet.replay_spooled_home",
                            replay_spooled_home, record)
            replayed.append((record["home_id"], home))
        out.keep = (result, replayed)
        return out

    def verify(self, led, last):
        result, replayed = last.keep
        verdict = Verdict()
        if len(result.rows) != self.homes_scaled:
            verdict.hard_errors.append(
                f"{len(result.rows)} rows for {self.homes_scaled} homes")
        for home_id, home in replayed:
            row = result.rows[home_id]
            report = home.report(check_final=True)
            for key, value in (("routines", report.routines),
                               ("committed", report.committed),
                               ("aborted", report.aborted),
                               ("lat_p50", report.latency["p50"])):
                if row[key] != value:
                    verdict.hard_errors.append(
                        f"home {home_id}: spooled replay {key}={value!r}, "
                        f"fleet row {row[key]!r}")
            led.call("metrics.oracle.check_run", _oracle, verdict,
                     f"home-{home_id}", home.last_result, home.initial)
        return verdict


# -- serving -------------------------------------------------------------------

class ServeClosed(Workload):
    """Sixteen closed-loop tenants on a two-home virtual-paced hub."""

    name = "serve_closed"
    clients = 16
    tenants = 16
    per_tenant = 750
    status_every = 250

    def setup(self, led, seed, scale):
        self.seed = seed
        self.per_tenant_scaled = scaled(self.per_tenant, scale, floor=5)

    def run_pass(self, led):
        homes = {f"home-{i}": build_serve_home(model="ev",
                                               seed=sub_seed(self.seed, i))
                 for i in range(2)}
        hub = ServeHub(homes, ServeConfig())
        for index in range(self.tenants):
            hub.add_tenant(f"tenant-{index:02d}", weight=1 + index % 2)
        done = [0]
        submitted_at: Dict[int, float] = {}
        hub_submit = hub.submit

        # The load generator is the client: it stamps its own requests
        # (host time, submit -> done hook) on this hub instance only.
        def submit(tenant, routine):
            ticket = hub_submit(tenant, routine)
            submitted_at[ticket.seq] = time.perf_counter()
            return ticket

        def on_done(ticket) -> None:
            led.record("serve.ticket_host",
                       time.perf_counter() - submitted_at.pop(ticket.seq))
            done[0] += 1
            if done[0] % self.status_every == 0:
                led.call("serve.ServeHub.status", hub.status)

        hub.submit = submit
        hub.on_ticket_done.append(on_done)
        before = total_events_processed()
        submitted = led.call("serve.run_closed_loop", run_closed_loop, hub,
                             self.per_tenant_scaled, seed=self.seed)
        out = PassResult(events=total_events_processed() - before)
        report_json = hub.final_report_json()
        report = json.loads(report_json)
        tenants = report["tenants"].values()
        out.ops = sum(t["offered"] for t in tenants)
        out.failed = sum(t["rejected"] + t["dropped"] for t in tenants)
        out.routines = out.finished = sum(
            t["committed"] + t["aborted"] for t in tenants)
        out.aborted = sum(t["aborted"] for t in tenants)
        out.homes = len(homes)
        out.lat_p50 = report["latency"]["total"]["p50"]
        out.lat_p95 = report["latency"]["total"]["p95"]
        out.outputs = [report_json]
        out.counts["virtual_makespan"] = report["virtual_makespan"]
        out.counts["max_queue_depth"] = max(t["max_depth"] for t in tenants)
        out.counts["submitted"] = sum(submitted.values())
        out.keep = (hub, done[0])
        return out

    def verify(self, led, last):
        hub, done = last.keep
        verdict = Verdict()
        expected = self.tenants * self.per_tenant_scaled
        if last.counts["submitted"] != expected or done != expected:
            verdict.hard_errors.append(
                f"{last.counts['submitted']} submitted / {done} finished "
                f"tickets for {expected} attempted")
        started = time.perf_counter()
        reports = hub.oracle_reports()
        led.record("metrics.oracle.check_run",
                   time.perf_counter() - started)
        for name, report in reports.items():
            verdict.oracle_checked += 1
            verdict.oracle_routines += len(hub.results()[name].runs)
            for violation in report.violations:
                verdict.violations.append(
                    dict(violation.to_dict(), home=name))
        return verdict


WORKLOADS = {cls.name: cls for cls in (
    FleetMix, FleetProcess, HomeEv, ModelSpectrum, DurableHome,
    DurableFleet, ServeClosed)}
