#!/usr/bin/env python3
"""Turn ``run.py --json`` results into one trajectory point.

    python3 perf_ledger/ledger_md.py --pr 11 --reference ref.json \\
        --second-seed other.json --out-dir perf_ledger/trajectory

``ref.json`` is a ``run.py --trace --json`` result over all workloads
(untraced + traced), ``other.json`` an untraced result at another seed.
Writes ``BENCH_<pr>.json`` (both, verbatim) and ``ledger_<pr>.md`` (the
end-to-end numbers and the per-workload cost-attribution tables).
"""

import argparse
import json
import os
import sys
from typing import Any, Dict, List


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _metric_rows(record: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    rows = ["| metric | unit | seed {} | seed {} |".format(
        record["seed"], other["seed"]), "|---|---|---|---|"]
    for section in ("e2e", "own"):
        for name, metric in record[section].items():
            second = other[section].get(name, {}).get("value")
            rows.append("| `{}` | {} | {:.6g} | {} |".format(
                name, metric["unit"], metric["value"],
                "" if second is None else f"{second:.6g}"))
    return rows


def _attribution_rows(record: Dict[str, Any]) -> List[str]:
    rows = ["| layer | self s | share of traced wall | self µs / event |",
            "|---|---|---|---|"]
    for row in record["attribution"]:
        rows.append("| {} | {:.4f} | {:.3f} | {:.3f} |".format(
            row["layer"], row["self_s"], row["share"],
            row["self_us_per_event"]))
    return rows


def render(pr: int, reference: Dict[str, Any],
           second: Dict[str, Any]) -> str:
    meta = reference["meta"]
    lines = [
        f"# Perf ledger — trajectory point {pr}", "",
        f"Reference run: `{meta['git']}`, Python {meta['python']}, "
        f"{meta['nproc']} cores, {meta['seconds']:g} s per run, "
        f"seed {meta['seed']} (untraced + traced) and seed "
        f"{second['meta']['seed']} (untraced).  Host-time numbers are "
        "this sandbox's; exact ones repeat on any machine.", ""]
    for name, record in reference["workloads"].items():
        layers = record["layers"]
        top = sorted((row for row in record["attribution"]
                      if row["layer"] not in ("total", "harness")),
                     key=lambda row: -row["share"])[:3]
        lines += [
            f"## {name}", "",
            "Largest layer shares: " + ", ".join(
                f"**{row['layer']}** {row['share']:.1%}" for row in top)
            + f".  Tracing overhead {layers['trace.overhead_x']['value']:.2f}x"
            f"; {len(record['passes'])} untraced passes; oracle violations "
            f"{record['oracle']['violations']} over "
            f"{record['oracle']['homes_checked']} homes; failed operations "
            f"and faulted homes {record['ops_failed']} of "
            f"{record['ops_attempted']} operations in a pass.", ""]
        lines += _attribution_rows(record) + [""]
        lines += _metric_rows(record, second["workloads"][name]) + [""]
        lines += [f"Digest (seed {record['seed']}): `{record['digest']}`", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--second-seed", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    reference, second = _load(args.reference), _load(args.second_seed)
    os.makedirs(args.out_dir, exist_ok=True)
    bench = os.path.join(args.out_dir, f"BENCH_{args.pr}.json")
    with open(bench, "w", encoding="utf-8") as handle:
        json.dump({"pr": args.pr, "reference": reference,
                   "second_seed": second}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    ledger = os.path.join(args.out_dir, f"ledger_{args.pr}.md")
    with open(ledger, "w", encoding="utf-8") as handle:
        handle.write(render(args.pr, reference, second))
    print(f"wrote {bench} and {ledger}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
