#!/usr/bin/env python3
"""Compare ledger results of a parent commit and a change.

    python3 perf_ledger/compare.py --parent P.json [P2.json ...] \\
                                   --change C.json [C2.json ...]
    python3 perf_ledger/compare.py --parent-dir DIR --change-dir DIR \\
                                   --pairs 10 [--workload NAME]... [--seed N]

The second form runs ``perf_ledger/run.py`` of both checkouts itself,
as interleaved pairs that alternate which side goes first (pair *i*
uses seed ``--seed + i`` on both sides).  Every file is a ``--json``
result of run.py (one workload or many).

One row per (workload, end-to-end metric): each side's median and
quartiles, the change against its base (the parent's median), pairs
won, and a verdict after the choosing-metrics guide, sections 6 to 8:

* ``improved``   the change wins at least 9/10 of at least ten pairs
  and the medians differ by more than the parent's own quartile
  distance;
* ``regressed``  the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` the parent's run-to-run spread is wider than the bound
  (and the two sides' runs overlap), so neither can be said;
* ``unchanged``  otherwise.

Exact metrics (virtual time, bytes, counts) have bound 0: any move is
a verdict.  Exit status 1 on any regression, and on a larger share of
failed operations or more oracle violations than the parent at the
same seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_metric_table() -> Dict[str, Dict[str, Any]]:
    """name -> {unit, better, bound, bound_on (optional, per workload),
    workloads or None} for every metric the comparison judges."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    table: Dict[str, Dict[str, Any]] = {}
    for metric in benchmark["end_to_end"]:
        table[metric["name"]] = dict(metric, workloads=None)
    directions = {m["name"]: m for m in benchmark["per_layer"]}
    for metric in spec["workload_end_to_end"]:
        table[metric["name"]] = dict(directions[metric["name"]], **metric)
    for name in spec["exact"]:
        table[name] = dict(table[name], bound=0.0)
    return table


def records_of(paths: List[str]) -> Dict[str, List[Dict[str, Any]]]:
    """workload -> its records, in file order."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        # A trajectory point (BENCH_<pr>.json) compares by its
        # reference run.
        payload = payload.get("reference", payload)
        records = payload["workloads"].values() \
            if "workloads" in payload else [payload]
        for record in records:
            out.setdefault(record["workload"], []).append(record)
    return out


def values_of(records: List[Dict[str, Any]], metric: str) -> List[float]:
    values = []
    for record in records:
        for section in ("e2e", "own"):
            entry = record.get(section, {}).get(metric)
            if entry is not None:
                values.append(entry["value"])
                break
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: List[float], change: List[float], better: str,
          bound: float) -> Dict[str, Any]:
    """The verdict for one (workload, metric) and the numbers behind it."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, _p_q2, p_q3 = quartiles(parent)
    c_q1, _c_q2, c_q3 = quartiles(change)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    base = abs(p_med) or 1.0
    worse_by = sign * (c_med - p_med) / base      # > 0: the change is worse
    spread = (p_q3 - p_q1) / base
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    if bound == 0.0:
        verdict = "unchanged" if worse_by == 0 else \
            ("regressed" if worse_by > 0 else "improved")
    elif pairs >= MIN_PAIRS_FOR_GAIN \
            and wins >= WIN_SHARE_FOR_GAIN * pairs \
            and abs(c_med - p_med) > (p_q3 - p_q1):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "regressed" if spread <= bound or all_worse \
            else "unresolved"
    else:
        verdict = "unresolved" if spread > bound and not all_better \
            else "unchanged"
    return {"parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "worse_by": worse_by, "spread": spread, "pairs": pairs,
            "wins": wins, "verdict": verdict}


def failed_share(records: List[Dict[str, Any]]) -> float:
    """Failed operations and oracle-faulted homes / operations."""
    attempted = sum(r["ops_attempted"] for r in records)
    return sum(r["ops_failed"] for r in records) / attempted \
        if attempted else 0.0


def compare(parent: Dict[str, List[Dict[str, Any]]],
            change: Dict[str, List[Dict[str, Any]]]) -> int:
    table = load_metric_table()
    status = 0
    header = (f"{'workload':<15}{'metric':<34}{'unit':<8}"
              f"{'parent med [q1, q3]':<36}{'change med [q1, q3]':<36}"
              f"{'change vs base':<26}{'wins':<8}verdict")
    print(header)
    for workload in parent:
        if workload not in change:
            print(f"{workload}: no change-side result")
            status = 1
            continue
        p_records, c_records = parent[workload], change[workload]
        for metric, info in table.items():
            if info["workloads"] is not None \
                    and workload not in info["workloads"]:
                continue
            p_values = values_of(p_records, metric)
            c_values = values_of(c_records, metric)
            if not p_values or not c_values:
                continue
            bound = info.get("bound_on", {}).get(workload, info["bound"])
            row = judge(p_values, c_values, info["better"], bound)
            if row["verdict"] == "regressed":
                status = 1
            direction = "worse" if row["worse_by"] > 0 else "better"
            print(f"{workload:<15}{metric:<34}{info['unit']:<8}"
                  f"{_cell(row, 'parent'):<36}{_cell(row, 'change'):<36}"
                  f"{abs(row['worse_by']) * 100:6.2f}% {direction} of "
                  f"{row['parent_median']:<9.5g}"
                  f"{row['wins']}/{row['pairs']:<6}{row['verdict']}"
                  f" (bound {bound:g})")
        status |= _compare_failures(workload, p_records, c_records)
    return status


def _cell(row: Dict[str, Any], side: str) -> str:
    return (f"{row[side + '_median']:.5g} [{row[side + '_q1']:.5g}, "
            f"{row[side + '_q3']:.5g}]")


def _by_seed(records) -> Dict[int, List[Dict[str, Any]]]:
    groups: Dict[int, List[Dict[str, Any]]] = {}
    for record in records:
        groups.setdefault(record["seed"], []).append(record)
    return groups


def _compare_failures(workload: str, p_records, c_records) -> int:
    """Seed by seed where both sides ran a seed (the inputs, and so the
    baseline of known violations, differ between seeds); pooled over
    each side's runs otherwise."""
    status = 0
    p_by_seed, c_by_seed = _by_seed(p_records), _by_seed(c_records)
    shared = sorted(set(p_by_seed) & set(c_by_seed))
    groups = [(f"seed {seed}", p_by_seed[seed], c_by_seed[seed])
              for seed in shared] or [("all runs", p_records, c_records)]
    for label, p_group, c_group in groups:
        p_failed, c_failed = failed_share(p_group), failed_share(c_group)
        if c_failed > p_failed:
            print(f"{workload} ({label}): failed operations rose from "
                  f"{p_failed:.6f} to {c_failed:.6f} of attempted "
                  f"-> regressed")
            status = 1
        p_violations = max(r["oracle"]["violations"] for r in p_group)
        c_violations = max(r["oracle"]["violations"] for r in c_group)
        if c_violations > p_violations:
            print(f"{workload} ({label}): oracle violations rose from "
                  f"{p_violations} to {c_violations} -> regressed")
            status = 1
    if any(not r["correct"] for r in c_records):
        print(f"{workload}: a change-side run failed its hard checks")
        status = 1
    for seed in shared:
        digests = {r["digest"] for r in p_by_seed[seed] + c_by_seed[seed]}
        if len(digests) > 1:
            print(f"{workload}: digest differs at seed {seed} "
                  f"(behaviour changed; not a failure by itself)")
    return status


def run_pairs(args: argparse.Namespace) -> Tuple[List[str], List[str]]:
    """Interleaved pairs; returns the result files of each side."""
    out_dir = args.out or os.path.join(HERE, "out", "pairs")
    os.makedirs(out_dir, exist_ok=True)
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    files: Dict[str, List[str]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 \
            else ("change", "parent")
        for side in order:
            path = os.path.join(out_dir, f"{side}_{pair:02d}.json")
            command = [sys.executable,
                       os.path.join(sides[side], "perf_ledger", "run.py"),
                       "--seed", str(args.seed + pair), "--json", path]
            for workload in args.workload:
                command += ["--workload", workload]
            print(f"pair {pair}: running {side}", file=sys.stderr)
            done = subprocess.run(command, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                sys.exit(f"{side} run of pair {pair} failed its hard checks")
            files[side].append(path)
    return files["parent"], files["change"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare ledger results of a parent and a change.")
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--parent-dir")
    parser.add_argument("--change-dir")
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.pairs:
        if not (args.parent_dir and args.change_dir):
            parser.error("--pairs needs --parent-dir and --change-dir")
        args.parent, args.change = run_pairs(args)
    if not (args.parent and args.change):
        parser.error("give --parent and --change result files, or --pairs")
    return compare(records_of(args.parent), records_of(args.change))


if __name__ == "__main__":
    sys.exit(main())
