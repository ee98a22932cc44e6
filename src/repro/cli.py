"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures [NAME ...]`` — regenerate one or all paper figures and
  print their data tables; a NAME that is no figure id runs the
  registered sweep of that name (``repro figures --help`` lists the ids).
* ``scenario NAME --model M`` — run one registered or ``synth:...`` scenario.
* ``export-trace NAME PATH`` — write a scenario to a trace JSON file.
* ``run-trace PATH --model M`` — run a trace file under a model.
* ``ablations`` — run the design-choice ablation sweeps.
* ``fleet --homes N --seed S`` — simulate a fleet of N independent
  homes across a worker pool and print deterministic aggregate
  metrics JSON (see :mod:`repro.fleet`); ``--plan fleet.json`` loads
  settings from a plan file (flags override), ``--dump-plan`` prints
  the effective plan.
* ``fleet-ops apply --plan plan.json`` — drive the fleet control
  plane from a versioned ``repro-fleet-plan/1`` file: cohort
  assignment, live visibility-model migration, supervised restarts
  under hub-crash chaos, canary comparison with auto-rollback, all
  journaled to a deterministic ops log (``fleet-ops status`` reads it
  back; see docs/control-plane.md).
* ``crash-recovery`` — run the hub-crash chaos workload on a durable
  hub: crash at seeded points (or ``--crash-at`` / ``--crash-event``),
  recover from checkpoint + WAL, and compare the final report against
  an uninterrupted run (see docs/durability.md); ``--wal-dir`` puts
  the WAL on disk as segmented CRC-framed files.
* ``fsck PATH`` — verify a durable artifact (segmented home WAL dir
  or merged fleet spool): classify clean / crash-consistent torn tail
  / corrupt, replay-verify the survivors, and with ``--salvage`` cut a
  corrupt log at its last good checkpoint and rebuild an oracle-clean
  home.  Exit 0 healthy, 1 damage corrected, 2 damage uncorrected.
* ``hunt`` — adversarial search over generated scenarios
  (:mod:`repro.workloads.synth`): seeded random + hill-climbing
  mutation maximizing incongruence/abort/lock-wait pressure per
  visibility model, oracle-checked, emitting a deterministic JSON
  corpus of worst-found scenarios (see docs/scenario-synthesis.md).
* ``serve`` — run the hub as a long-lived service: N tenants submit
  closed-loop against live homes under real-time pacing
  (``--speedup``), bounded fair admission queues and streaming SLO
  metrics (``--json-status``, ``GET /status``); ``--speedup inf``
  runs virtual-paced and byte-deterministic (see docs/serving.md).

A refusal — a typed ``SafeHomeError``, a missing file, a bad value —
leaves every command as one ``repro: <message>`` line on stderr, exit 2.
"""

import argparse
import sys
from typing import Dict, List

from repro.bench import registry
from repro.errors import SafeHomeError
from repro.experiments.report import print_table
from repro.experiments.runner import ExperimentSetup, run_workload
from repro.workloads.fleet_mix import (FLEET_SCENARIOS,
                                       build_fleet_workload)


def _print_sweep(spec: registry.BenchSpec, trials: int) -> None:
    """Run one registered experiment driver and print its table(s)."""
    result = spec.fn(**(spec.cli(trials) if spec.cli else {}))
    for key, rows in spec.tables(result).items():
        print_table(spec.title if key == "rows"
                    else f"{spec.title} ({key})", rows)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_figures(args: argparse.Namespace) -> int:
    figures = registry.figures()
    specs = [figures.get(name) or registry.get(name)
             for name in args.names or sorted(figures)]
    for spec in specs:
        _print_sweep(spec, args.trials)
    return 0


def _report_json(report) -> str:
    """Deterministic JSON for one scenario report (determinism gate)."""
    import json

    payload = dict(report.row())
    payload["serial_order"] = list(report.serial_order)
    payload["lock_wait_p50"] = round(report.lock_wait.get("p50", 0.0), 6)
    payload["lock_wait_mean"] = round(report.lock_wait.get("mean", 0.0), 6)
    payload["plan_makespan_p50"] = round(
        report.plan_makespan.get("p50", 0.0), 6)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _run_and_print(args: argparse.Namespace, load, name: str = "") -> int:
    """The body of ``scenario`` and ``run-trace``: load the workload,
    run it on one hub under the command's flags, print its report row."""
    workload = load()
    setup = ExperimentSetup(model=args.model, scheduler=args.scheduler,
                            execution=args.execution,
                            seed=args.seed, check_final=False)
    _result, report, _controller = run_workload(workload, setup)
    print_table(f"{name or workload.name} under {args.model}",
                [report.row()])
    if getattr(args, "json", ""):
        _write(args.json, _report_json(report))
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    return _run_and_print(
        args, lambda: build_fleet_workload(args.name, args.seed), args.name)


def cmd_export_trace(args: argparse.Namespace) -> int:
    from repro.workloads.traces import save_workload

    save_workload(build_fleet_workload(args.name, args.seed), args.path)
    print(f"wrote {args.name} trace to {args.path}")
    return 0


def cmd_run_trace(args: argparse.Namespace) -> int:
    from repro.workloads.traces import load_workload

    return _run_and_print(args, lambda: load_workload(args.path))


def _fleet_plan_section(path: str) -> Dict[str, object]:
    """The ``fleet`` section of a plan file.

    Accepts either a full ``repro-fleet-plan/1`` document (validated
    through :class:`~repro.fleet.control.plan.FleetPlan`) or a bare
    fleet dict such as ``{"homes": 100, "seed": 42}``.
    """
    import json

    from repro.errors import PlanError
    from repro.fleet.control.plan import FleetPlan

    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise PlanError(f"{path}: plan must be a JSON object")
    if "version" in data or "fleet" in data:
        return FleetPlan.from_dict(data).fleet
    return data


def _fleet_overrides(args: argparse.Namespace) -> Dict[str, object]:
    """The FleetConfig fields the user set explicitly on the CLI.

    Every fleet flag defaults to ``None`` (unset), so the effective
    config layers dataclass defaults <- ``--plan`` <- explicit flags.
    """
    from repro.errors import PlanError

    overrides: Dict[str, object] = {}
    for flag in ("homes", "seed", "scenario", "model", "scheduler",
                 "execution", "backend", "chunk", "aggregate",
                 "crashes", "recovery", "wal_dir"):
        value = getattr(args, flag)
        if value is not None:
            overrides[flag] = value
    if args.mix:
        overrides["mix"] = tuple(args.mix.split(","))
    if args.workers is not None:
        raw = str(args.workers).strip().lower()
        if raw == "auto":
            overrides["workers"] = 0   # 0 = one per CPU (capped at homes)
        else:
            try:
                overrides["workers"] = int(raw)
            except ValueError:
                raise PlanError(f"--workers must be an integer or "
                                f"'auto', got {args.workers!r}")
    if args.no_check_final:
        overrides["check_final"] = False
    return overrides


def cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import FleetConfig, FleetEngine

    fleet = _fleet_plan_section(args.plan) if args.plan else {}
    config = FleetConfig.from_plan(fleet, **_fleet_overrides(args))
    if args.dump_plan:
        sys.stdout.write(json.dumps(config.to_plan(), sort_keys=True,
                                    indent=2) + "\n")
        return 0
    result = FleetEngine(config).run()
    text = result.to_json(per_home=args.per_home) + "\n"
    sys.stdout.write(text)
    if args.json:
        _write(args.json, text)
    return 0


def cmd_fleet_ops_apply(args: argparse.Namespace) -> int:
    from repro.fleet.control import ControlLoop, load_plan

    result = ControlLoop(load_plan(args.plan)).run()
    if args.ops_log:
        result.ops.save(args.ops_log)
    text = result.to_json(per_home=args.per_home) + "\n"
    sys.stdout.write(text)
    if args.json:
        _write(args.json, text)
    restarts = sum(row.get("restarts", 0) for row in result.rows)
    print(f"applied {args.plan}: {len(result.rows)} homes, "
          f"{len(result.migrated_homes)} migrated, "
          f"{restarts} restarts, rolled_back={result.rolled_back}, "
          f"{len(result.ops)} ops journaled", file=sys.stderr)
    if not result.ok:
        print(f"FAIL: {len(result.failed_homes)} abandoned home(s), "
              f"{result.oracle_violations} congruence-oracle "
              f"violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_fleet_ops_status(args: argparse.Namespace) -> int:
    from repro.fleet.control import OpsLog

    log = OpsLog.load(args.ops_log)
    counts = log.counts()
    print_table(f"ops log: {args.ops_log} ({len(log)} entries)",
                [{"op": op, "count": counts[op]} for op in sorted(counts)])
    for entry in log:
        if entry.get("op") == "complete":
            print(f"complete: homes={entry.get('homes')} "
                  f"migrated={entry.get('migrated')} "
                  f"restarts={entry.get('restarts')} "
                  f"failed={len(entry.get('failed', []))} "
                  f"oracle_ok={entry.get('oracle_ok')} "
                  f"rolled_back={entry.get('rolled_back')}",
                  file=sys.stderr)
    return 0


def cmd_crash_recovery(args: argparse.Namespace) -> int:
    from repro.workloads.chaos import run_chaos

    result = run_chaos(
        model=args.model, execution=args.execution or "serial",
        seed=args.seed, crashes=args.crashes, recovery=args.recovery,
        checkpoint_every=args.checkpoint_every,
        crash_at=args.crash_at, crash_event=args.crash_event,
        scenario=args.scenario or None,
        wal_dir=args.wal_dir or None)
    rows = [dict(recovery, congruent=result.congruent)
            for recovery in result.recoveries] or \
        [{"congruent": result.congruent, "mode": result.recovery_mode}]
    print_table(
        f"hub crash-recovery: {args.model}/{result.execution} "
        f"({result.recovery_mode} mode)",
        [{key: row.get(key) for key in
          ("mode", "crash_events", "replayed_events", "replayed_records",
           "checkpoints_verified", "resumed", "aborted", "congruent")}
         for row in rows])
    if args.json:
        _write(args.json, result.to_json() + "\n")
    if args.recovery == "replay" and not result.congruent:
        print("FAIL: replay recovery diverged from the uninterrupted run",
              file=sys.stderr)
        return 1
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.hub.durability.fsck import fsck_path

    # Unreadable before a report could be built (a foreign or missing
    # fleet index) is refused like "not a WAL directory": exit 2.
    report = fsck_path(args.path, salvage=args.salvage)
    text = report.to_json() + "\n"
    if args.report:
        _write(args.report, text)
    if args.json or not args.report:
        sys.stdout.write(text)
    code = report.exit_code()
    label = {0: "healthy", 1: "damage corrected (salvaged)",
             2: "damage NOT corrected"}[code]
    print(f"fsck {args.path}: status={report.status} "
          f"exit={code} ({label})", file=sys.stderr)
    return code


def cmd_hunt(args: argparse.Namespace) -> int:
    from repro.workloads.synth import (HUNT_MODELS, corpus_to_json,
                                       hunt_corpus)

    models = tuple(args.model.split(",")) if args.model != "all" \
        else HUNT_MODELS
    unknown = [m for m in models if m not in HUNT_MODELS]
    if unknown:
        raise ValueError(f"unknown models {unknown}; pick from "
                         f"{list(HUNT_MODELS)} or 'all'")
    corpus = hunt_corpus(models, objective=args.objective,
                         seed=args.seed, budget=args.budget,
                         execution=args.execution or "serial")
    print_table(
        f"hunt: objective={args.objective} seed={args.seed} "
        f"budget={args.budget}",
        [{"model": model,
          "score": entry["best"]["score"],
          "found_at": entry["best"]["found_at"],
          "routines": entry["best"]["spec"]["routines"],
          "devices": entry["best"]["spec"]["devices"],
          "violations": entry["oracle_violations"]}
         for model, entry in corpus["models"].items()])
    for model, entry in corpus["models"].items():
        print(f"{model}: {entry['best']['scenario']}", file=sys.stderr)
    if args.json:
        _write(args.json, corpus_to_json(corpus) + "\n")
    if corpus["oracle_violations"]:
        print(f"FAIL: {corpus['oracle_violations']} congruence-oracle "
              "violations — a visibility model broke an invariant",
              file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import math

    from repro.serve import (ServeConfig, ServeHub, StatusServer,
                             ThreadedClient, build_serve_home,
                             parse_speedup, run_closed_loop)
    from repro.sim.random import derive_seed

    speedup = parse_speedup(args.speedup)
    config = ServeConfig(speedup=speedup,
                         queue_capacity=args.queue_capacity,
                         window_s=args.window)
    homes = {
        f"home-{i}": build_serve_home(
            model=args.model, scheduler=args.scheduler,
            execution=args.execution,
            seed=derive_seed(args.seed, f"home-{i}"))
        for i in range(args.homes)}
    hub = ServeHub(homes, config)
    weights = [int(w) for w in args.weights.split(",")] \
        if args.weights else [1]
    for i in range(args.tenants):
        hub.add_tenant(f"t{i}", weight=weights[i % len(weights)])

    status_server = None
    if args.port >= 0:
        status_server = StatusServer(hub, port=args.port)
        status_server.start()
        print(f"status: http://127.0.0.1:{status_server.port}/status",
              file=sys.stderr)
    try:
        if math.isinf(speedup):
            # Virtual-paced: inline, single-threaded, deterministic.
            run_closed_loop(hub, per_tenant=args.routines,
                            seed=args.seed)
        else:
            hub.start()
            clients = [ThreadedClient(hub, f"t{i}", count=args.routines,
                                      seed=args.seed)
                       for i in range(args.tenants)]
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            hub.shutdown(drain=True, timeout=60.0)
            for client in clients:
                if client.error is not None:
                    raise client.error
    finally:
        if status_server is not None:
            status_server.stop()

    status = hub.status(include_wall=not math.isinf(speedup))
    label = "inf" if math.isinf(speedup) else f"{speedup:g}"
    print_table(
        f"serve: {args.model} x{args.homes} home(s), "
        f"{args.tenants} tenant(s), speedup={label}",
        [dict({"tenant": name}, **{
            key: row[key] for key in
            ("home", "weight", "admitted", "rejected", "committed",
             "aborted", "max_depth", "abort_rate")})
         for name, row in status["tenants"].items()])
    latency = status["latency"]["total"]
    print(f"latency (virtual s): n={latency['n']} "
          f"p50={latency['p50']:.3f} p95={latency['p95']:.3f} "
          f"p99={latency['p99']:.3f}", file=sys.stderr)
    if "wall" in status:
        print(f"wall: {status['wall']['elapsed_s']:.2f}s elapsed, "
              f"{status['wall']['behind_s']:.3f}s behind schedule, "
              f"{status['wall']['clock_regressions']} clock regressions",
              file=sys.stderr)
    if args.json_status:
        _write(args.json_status, hub.status_json() + "\n")
    if args.json:
        _write(args.json, hub.final_report_json())
    if args.check_oracle:
        violations = sum(len(report.violations)
                         for report in hub.oracle_reports().values())
        if violations:
            print(f"FAIL: {violations} congruence-oracle violation(s) "
                  "in the served run", file=sys.stderr)
            return 1
    return 0


def cmd_ablations(args: argparse.Namespace) -> int:
    for spec in registry.parts("ablations"):
        _print_sweep(spec, args.trials)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SafeHome reproduction (EuroSys 2021) experiment CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument(
        "names", nargs="*",
        help="figure ids (default: all): "
             + ", ".join(sorted(registry.figures())) + "; or sweeps: "
             + ", ".join(name for name, spec in registry.sweeps().items()
                         if not spec.figure))
    figures.add_argument("--trials", type=int, default=20)
    figures.set_defaults(func=cmd_figures)

    scenario_name = ("a registered scenario ("
                     + ", ".join(sorted(FLEET_SCENARIOS)) + ") or a "
                     "generated 'synth:...' name (e.g. from a hunt corpus)")
    scenario = sub.add_parser("scenario", help="run one scenario")
    scenario.add_argument("name", help=scenario_name)
    scenario.set_defaults(func=cmd_scenario)

    export = sub.add_parser("export-trace", help="write a scenario trace")
    export.add_argument("name", help=scenario_name)
    export.add_argument("path")
    export.add_argument("--seed", type=int, default=0)
    export.set_defaults(func=cmd_export_trace)

    run_trace = sub.add_parser("run-trace", help="run a trace file")
    run_trace.add_argument("path")
    run_trace.set_defaults(func=cmd_run_trace)

    for command in (scenario, run_trace):   # one body, one set of flags
        command.add_argument("--model", default="ev")
        command.add_argument("--scheduler", default="timeline")
        command.add_argument("--execution", default=None,
                             choices=("serial", "parallel"),
                             help="command-plan strategy (default: serial)")
        command.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--json", default="",
                          help="write the report JSON to this path "
                               "(deterministic; used by the CI gate)")

    ablate = sub.add_parser("ablations", help="design-choice sweeps")
    ablate.add_argument("--trials", type=int, default=4)
    ablate.set_defaults(func=cmd_ablations)

    crash = sub.add_parser(
        "crash-recovery",
        help="crash the hub mid-run and recover from checkpoint + WAL")
    crash.add_argument("--model", default="ev")
    crash.add_argument("--execution", default=None,
                       choices=("serial", "parallel"),
                       help="command-plan strategy (default: serial)")
    crash.add_argument("--seed", type=int, default=0)
    crash.add_argument("--crashes", type=int, default=2,
                       help="seeded crash points per run (default: 2)")
    crash.add_argument("--crash-at", type=float, default=None,
                       help="single crash at this virtual time "
                            "(overrides --crashes)")
    crash.add_argument("--crash-event", type=int, default=None,
                       help="single crash after this many simulator "
                            "events (overrides --crashes)")
    crash.add_argument("--recovery", default="replay",
                       choices=("replay", "policy"),
                       help="in-flight routine handling on recovery "
                            "(default: replay)")
    crash.add_argument("--checkpoint-every", type=int, default=32,
                       help="observations per checkpoint "
                            "(default: 32)")
    crash.add_argument("--scenario", default="",
                       help="run a generated 'synth:...' scenario "
                            "(e.g. from a hunt corpus) instead of the "
                            "evening scene")
    crash.add_argument("--json", default="",
                       help="write the deterministic chaos summary "
                            "JSON to this path")
    crash.add_argument("--wal-dir", default="",
                       help="write the crashing home's WAL to segmented "
                            "CRC-framed files in this directory "
                            "(inspect afterwards with 'repro fsck')")
    crash.set_defaults(func=cmd_crash_recovery)

    fsck = sub.add_parser(
        "fsck",
        help="verify (and optionally salvage) a durable WAL artifact: "
             "a segmented home WAL dir or a merged fleet spool")
    fsck.add_argument("path",
                      help="home WAL directory (wal-*.seg), fleet spool "
                           "directory, or a fleet-wal.segs path")
    fsck.add_argument("--salvage", action="store_true",
                      help="on corruption, cut the log at its last good "
                           "checkpoint, replay the surviving prefix and "
                           "verify it against the congruence oracle")
    fsck.add_argument("--report", default="",
                      help="write the deterministic repro-fsck-report/1 "
                           "JSON to this path instead of stdout")
    fsck.add_argument("--json", action="store_true",
                      help="print the report JSON to stdout even when "
                           "--report is given")
    fsck.set_defaults(func=cmd_fsck)

    hunt = sub.add_parser(
        "hunt",
        help="adversarial search for each model's worst generated "
             "scenarios (oracle-checked)")
    hunt.add_argument("--model", default="all",
                      help="comma-separated visibility models, or 'all' "
                           "(default: all)")
    hunt.add_argument("--objective", default="incongruence",
                      choices=("incongruence", "aborts", "lock_wait"),
                      help="pressure metric the search maximizes "
                           "(default: incongruence)")
    hunt.add_argument("--seed", type=int, default=0,
                      help="search seed; same seed + budget => "
                           "byte-identical corpus (default: 0)")
    hunt.add_argument("--budget", type=int, default=50,
                      help="evaluations per model (default: 50)")
    hunt.add_argument("--execution", default=None,
                      choices=("serial", "parallel"),
                      help="command-plan strategy (default: serial)")
    hunt.add_argument("--json", default="",
                      help="write the worst-found corpus JSON to this "
                           "path")
    hunt.set_defaults(func=cmd_hunt)

    fleet = sub.add_parser(
        "fleet", help="simulate N independent homes concurrently")
    fleet.add_argument("--plan", default="",
                       help="load fleet settings from this JSON file — a "
                            "full repro-fleet-plan/1 document (its "
                            "'fleet' section is used) or a bare fleet "
                            "dict; explicit flags override the plan")
    fleet.add_argument("--dump-plan", action="store_true",
                       help="print the effective fleet plan JSON "
                            "(defaults <- --plan <- flags) and exit")
    fleet.add_argument("--homes", type=int, default=None,
                       help="fleet size (default: 10)")
    fleet.add_argument("--seed", type=int, default=None,
                       help="master seed, split per home (default: 0)")
    fleet.add_argument("--scenario", default=None,
                       help="'mix' or one fleet scenario name "
                            "(default: mix)")
    fleet.add_argument("--mix", default="",
                       help="comma-separated scenario cycle for "
                            "--scenario mix")
    fleet.add_argument("--model", default=None,
                       help="visibility model (default: ev)")
    fleet.add_argument("--scheduler", default=None,
                       help="scheduler (default: timeline)")
    fleet.add_argument("--execution", default=None,
                       choices=("serial", "parallel"),
                       help="per-home command-plan strategy "
                            "(default: serial)")
    fleet.add_argument("--backend", default=None,
                       choices=("serial", "process"),
                       help="worker pool type (default: serial)")
    fleet.add_argument("--workers", default=None,
                       help="pool size; 0 or 'auto' = one per CPU "
                            "(default: 0)")
    fleet.add_argument("--chunk", type=int, default=None,
                       help="homes per dispatch chunk; 0 = homes/workers "
                            "rounded up (amortizes IPC; smaller chunks "
                            "stream better)")
    fleet.add_argument("--aggregate", default=None,
                       choices=("exact", "stream"),
                       help="'exact' pools raw latency samples in the "
                            "parent (byte-stable default); 'stream' "
                            "merges per-chunk histogram accumulators "
                            "(percentiles within 1 ms)")
    fleet.add_argument("--wal-dir", default=None,
                       help="spool per-home WALs to worker-local files "
                            "in this directory and merge them into an "
                            "indexed fleet-wal.segs, one CRC-framed log "
                            "image per home (forces durable homes)")
    fleet.add_argument("--crashes", type=int, default=None,
                       help="hub crashes per home at seeded times "
                            "(default: 0 = no chaos)")
    fleet.add_argument("--recovery", default=None,
                       choices=("replay", "policy"),
                       help="hub recovery mode when --crashes > 0")
    fleet.add_argument("--per-home", action="store_true",
                       help="include per-home rows in the JSON")
    fleet.add_argument("--no-check-final", action="store_true",
                       help="skip the final-incongruence check (faster)")
    fleet.add_argument("--json", default="",
                       help="also write the JSON to this path")
    fleet.set_defaults(func=cmd_fleet)

    fleet_ops = sub.add_parser(
        "fleet-ops",
        help="fleet control plane: apply versioned plans (live "
             "migration, supervision, canaries) and inspect ops logs")
    ops_sub = fleet_ops.add_subparsers(dest="ops_command", required=True)

    ops_apply = ops_sub.add_parser(
        "apply",
        help="execute a repro-fleet-plan/1 file through the control "
             "loop; exit 1 on oracle violations or abandoned homes")
    ops_apply.add_argument("--plan", required=True,
                           help="repro-fleet-plan/1 JSON file "
                                "(the only way to drive fleet ops)")
    ops_apply.add_argument("--ops-log", default="",
                           help="write the deterministic JSONL ops "
                                "journal to this path (the CI control "
                                "gate cmp's two runs)")
    ops_apply.add_argument("--json", default="",
                           help="also write the result JSON to this path")
    ops_apply.add_argument("--per-home", action="store_true",
                           help="include per-home rows in the JSON")
    ops_apply.set_defaults(func=cmd_fleet_ops_apply)

    ops_status = ops_sub.add_parser(
        "status", help="summarize a saved ops log")
    ops_status.add_argument("--ops-log", required=True,
                            help="JSONL ops journal written by apply")
    ops_status.set_defaults(func=cmd_fleet_ops_status)

    serve = sub.add_parser(
        "serve",
        help="run the hub as a long-lived multi-tenant service with "
             "real-time pacing, admission control and SLO metrics")
    serve.add_argument("--model", default="ev")
    serve.add_argument("--scheduler", default="timeline")
    serve.add_argument("--execution", default=None,
                       choices=("serial", "parallel"),
                       help="command-plan strategy (default: serial)")
    serve.add_argument("--seed", type=int, default=0,
                       help="master seed for homes and client picks "
                            "(default: 0)")
    serve.add_argument("--homes", type=int, default=1,
                       help="live homes behind the hub; tenants are "
                            "routed round-robin (default: 1)")
    serve.add_argument("--tenants", type=int, default=4,
                       help="closed-loop client tenants (default: 4)")
    serve.add_argument("--weights", default="",
                       help="comma-separated fair-share weights, cycled "
                            "across tenants (default: all 1)")
    serve.add_argument("--routines", type=int, default=50,
                       help="routines each tenant submits (default: 50)")
    serve.add_argument("--speedup", default="inf",
                       help="virtual seconds per wall second, or 'inf' "
                            "for virtual-paced deterministic serving "
                            "(default: inf)")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="per-tenant admission queue bound "
                            "(default: 64)")
    serve.add_argument("--window", type=float, default=60.0,
                       help="rolling SLO window in virtual seconds "
                            "(default: 60)")
    serve.add_argument("--port", type=int, default=-1,
                       help="serve GET /status on this port while "
                            "running (0 = ephemeral; default: off)")
    serve.add_argument("--json", default="",
                       help="write the deterministic final report JSON "
                            "to this path (the determinism gate)")
    serve.add_argument("--json-status", default="",
                       help="write the final SLO status JSON to this "
                            "path (CI artifact)")
    serve.add_argument("--check-oracle", action="store_true",
                       help="fail (exit 1) on any congruence-oracle "
                            "violation in the served run")
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SafeHomeError, OSError, ValueError) as error:
        # A refusal (existing WAL segments, an unknown model or
        # scenario, a missing plan file, a bad flag value) is an
        # answer, not a crash.
        print(f"repro: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
