#!/usr/bin/env python3
"""The perf ledger's one command (see perf_ledger/README.md).

    python3 perf_ledger/run.py [--workload NAME]... [--seed N]
                               [--seconds S] [--trace [0|1]] [--json OUT]
    python3 perf_ledger/run.py --workload NAME --setup-only

With exactly one ``--workload`` the workload runs in this (fresh)
process and the last line of standard output is the result object the
benchmark contract of BENCHMARK.json asks for.  With several (default:
all seven) each runs in its own subprocess, untraced and — with
``--trace`` — once more traced, and ``--json`` collects the records.
``--setup-only`` stops after the set-up and prints its seconds.

Exit status is non-zero on any hard-check failure: an exception in the
program, a row or ticket count that differs from what was attempted,
outputs that differ between passes, a failed recovery or unhealthy WAL
scan, or a tracing shim left behind.
"""

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_TIMEOUT_S = 175


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared_units(benchmark: dict) -> dict:
    return {section: {m["name"]: m["unit"] for m in benchmark[section]}
            for section in ("end_to_end", "per_layer")}


def import_harness():
    """The program is built from the checkout's own source tree; a
    checkout without it cannot be measured."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"perf_ledger: no program to measure under {source}")
    # The script directory leaves the path so that perf_ledger/trace.py
    # can never shadow the standard library's ``trace``.
    sys.path[0:1] = [ROOT, source]
    from perf_ledger import harness
    return harness


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", default=None, metavar="OUT")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; for the ledger's own "
                             "tests only (reference numbers are scale 1)")
    parser.add_argument("--setup-only", action="store_true",
                        help="do one workload's set-up (imports, input "
                             "generation, warm pass), print its seconds "
                             "and stop; a run repeats its set-up this way")
    return parser.parse_args(argv)


def print_metrics(workload: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")


def print_record(record: dict) -> None:
    name = record["workload"]
    print_metrics(name, record["e2e"])
    if "layers" in record:
        print_metrics(name, record["layers"])
        print(f"{name} cost attribution (traced passes):")
        print(f"  {'layer':<12}{'self_s':>10}{'share':>9}{'us/event':>11}")
        for row in record["attribution"]:
            print(f"  {row['layer']:<12}{row['self_s']:>10.4f}"
                  f"{row['share']:>9.3f}{row['self_us_per_event']:>11.3f}")
    else:
        print_metrics(name, record["own"])
    oracle = record["oracle"]
    print(f"{name} ops_attempted {record['ops_attempted']} count (one pass)")
    print(f"{name} ops_failed {record['ops_failed']} count (failed "
          f"operations and homes the oracle faults)")
    print(f"{name} oracle_violations {oracle['violations']} count "
          f"({oracle['homes_checked']} homes checked)")
    for spec in oracle["specs"][:5]:
        print(f"{name}   oracle: {spec['home']} {spec['invariant']}: "
              f"{spec['detail'][:100]}")
    print(f"{name} digest {record['digest']}")
    for error in record["hard_errors"]:
        print(f"{name} HARD-CHECK FAILED: {error}")


def run_one(args: argparse.Namespace, benchmark: dict) -> int:
    harness = import_harness()
    name = args.workload[0]
    if name not in harness.WORKLOADS:
        sys.exit(f"unknown workload {name!r}; pick from "
                 f"{sorted(harness.WORKLOADS)}")
    if args.setup_only:
        led, _workload = harness.prepare(name, args.seed, args.scale)
        led.close()
        print(repr(time.perf_counter() - PROCESS_STARTED))
        return 0
    record = harness.run_workload(
        name, args.seed, args.seconds, bool(args.trace), args.scale,
        PROCESS_STARTED, declared_units(benchmark))
    print_record(record)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    section = "layers" if args.trace else "e2e"
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record[section]}))
    return 0 if record["correct"] else 1


def _git_describe() -> str:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_many(args: argparse.Namespace, benchmark: dict) -> int:
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    merged = {
        "meta": {"git": _git_describe(),
                 "python": platform.python_version(),
                 "nproc": os.cpu_count(), "seed": args.seed,
                 "seconds": args.seconds, "scale": args.scale},
        "workloads": {},
    }
    status = 0
    for name in names:
        for traced in ((0, 1) if args.trace else (0,)):
            path = os.path.join(out_dir, f"record_{name}_{traced}.json")
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", repr(args.seconds),
                       "--trace", str(traced), "--scale", repr(args.scale),
                       "--json", path]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=WORKLOAD_TIMEOUT_S)
            # The child's last line is the contract object; the ledger
            # view keeps the named lines above it.
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                status = 1
                continue
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
            os.remove(path)
            if traced and name in merged["workloads"]:
                base = merged["workloads"][name]
                base["layers"] = record["layers"]
                base["attribution"] = record["attribution"]
                base["traced_passes"] = record["passes"]
                if record["digest"] != base["digest"]:
                    print(f"{name} HARD-CHECK FAILED: traced run digest "
                          f"differs from untraced run")
                    status = 1
            else:
                merged["workloads"][name] = record
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if len(args.workload) == 1:
        return run_one(args, benchmark)
    return run_many(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
