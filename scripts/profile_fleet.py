#!/usr/bin/env python
"""Profile the fleet engine's hot path with cProfile.

The entry point used to find the next fleet bottleneck (this is how the
PR-5 throughput pass located the pump scans, closure rebuilds and
journal payload churn).  Runs one fleet configuration under cProfile
and prints the top functions by cumulative and internal time::

    PYTHONPATH=src python scripts/profile_fleet.py --homes 100
    PYTHONPATH=src python scripts/profile_fleet.py --homes 50 \
        --scenario morning --sort tottime --limit 40
    PYTHONPATH=src python scripts/profile_fleet.py --out fleet.pstats

The fleet runs on the serial backend, in this process, so the profiler
wraps the whole run: this is the per-home cost every backend pays.
Pool-only costs (spin-up, chunking, partial transport) are the perf
ledger's ``fleet_process`` workload to measure
(``python3 perf_ledger/run.py --workload fleet_process --trace``).

``--json`` writes the top-N functions by cumulative time as JSON —
machine-readable output for tracking bottleneck drift across PRs.
Open a ``--out`` dump with ``snakeviz``/``pstats`` interactively.
"""

import argparse
import cProfile
import json
import os
import pstats
import sys
import time

from repro.fleet import FleetConfig, FleetEngine


def top_functions(stats: pstats.Stats, limit: int) -> list:
    """The top-``limit`` functions by cumulative time, as plain dicts.

    ``stats.stats`` maps ``(file, line, name)`` to
    ``(calls, primitive_calls, tottime, cumtime, callers)``.
    """
    rows = []
    for (filename, line, name), (calls, primitive, tottime, cumtime,
                                 _callers) in stats.stats.items():
        rows.append({
            "function": name,
            "file": os.path.basename(filename),
            "line": line,
            "ncalls": calls,
            "primitive_calls": primitive,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    rows.sort(key=lambda row: row["cumtime_s"], reverse=True)
    return rows[:limit]


def profile_serial(engine: FleetEngine):
    """Profile the whole run in-process."""
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = engine.run()
    profiler.disable()
    elapsed = time.perf_counter() - started
    return pstats.Stats(profiler), result, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--homes", type=int, default=100,
                        help="fleet size to profile (default: 100)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scenario", default="mix",
                        help="'mix' or one fleet scenario name")
    parser.add_argument("--model", default="ev")
    parser.add_argument("--crashes", type=int, default=0,
                        help="profile the durable path (hub crashes "
                             "per home)")
    parser.add_argument("--check-final", action="store_true",
                        help="include the final-serializability search "
                             "(excluded by default, as in the ledger's "
                             "fleet_mix)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key (default: cumulative)")
    parser.add_argument("--limit", type=int, default=30,
                        help="rows to print (default: 30)")
    parser.add_argument("--out", default="",
                        help="also dump raw pstats to this path")
    parser.add_argument("--json", default="",
                        help="write the top functions by cumulative "
                             "time as JSON to this path")
    args = parser.parse_args(argv)

    config = FleetConfig(
        homes=args.homes, seed=args.seed, scenario=args.scenario,
        model=args.model, crashes=args.crashes,
        check_final=args.check_final)
    stats, result, elapsed = profile_serial(FleetEngine(config))

    print(f"{args.homes} homes in {elapsed:.2f}s under the profiler "
          f"({args.homes / elapsed:.1f} homes/s; profiling overhead "
          f"inflates everything — compare shapes, not absolutes)",
          file=sys.stderr)
    print(f"aggregate: {result.aggregate['routines']} routines, "
          f"abort rate {result.aggregate['abort_rate']:.4f}",
          file=sys.stderr)
    stats.sort_stats(args.sort).print_stats(args.limit)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        payload = {
            "homes": args.homes,
            "seed": args.seed,
            "scenario": args.scenario,
            "model": args.model,
            "top_cumulative": top_functions(stats, args.limit),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
