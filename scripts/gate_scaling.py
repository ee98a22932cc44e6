#!/usr/bin/env python
"""Gate multi-core fleet scaling and maintain the baseline table.

Consumes the summary JSON written by ``repro bench --suite scale
--json ...`` (the ``fleet_scale_mp`` benchmark), then:

* fails (exit 1) when the core-normalized parallel efficiency at the
  highest worker count falls below the floor — enforced as a hard gate
  only on machines with >= 4 cores, where the core-normalized number
  equals the headline ``speedup(4)/4`` parallel efficiency; on smaller
  machines the check still runs but only warns, since there the number
  measures pool overhead, not true scaling;
* writes a markdown delta table (``--markdown``) comparing the fresh
  measurement against the ``scaling_mp`` table recorded in
  ``benchmarks/baseline.json`` — the CI artifact reviewers read;
* with ``--update-baseline``, rewrites only the ``scaling_mp`` table in
  the baseline file (floors and other tables are preserved untouched).

Usage::

    python scripts/gate_scaling.py scale.json \
        --baseline benchmarks/baseline.json \
        --markdown scaling_delta.md [--update-baseline] [--floor 0.75]
"""

import argparse
import json
import sys

#: Minimum core-normalized parallel efficiency at the highest worker
#: count (see fleet_scale_mp's docstring for the two definitions).
DEFAULT_FLOOR = 0.75

#: Hard-gate only on machines where efficiency == speedup(k)/k at the
#: top worker count; below this the check degrades to a warning.
GATE_MIN_CORES = 4


def load_measurement(summary_path):
    """The fleet_scale_mp timing block out of a bench summary JSON."""
    with open(summary_path, "r", encoding="utf-8") as handle:
        summary = json.load(handle)
    for result in summary.get("results", []):
        if result.get("name") == "fleet_scale_mp":
            timing = result.get("timing") or {}
            if not timing.get("scaling"):
                raise SystemExit(
                    f"{summary_path}: fleet_scale_mp has no timing."
                    f"scaling table")
            return timing
    raise SystemExit(f"{summary_path}: no fleet_scale_mp result "
                     f"(run: repro bench --suite scale --json ...)")


def build_table(timing, floor):
    """The scaling_mp baseline table for one measurement."""
    return {
        "cores": timing["cores"],
        "efficiency_floor": floor,
        "note": ("efficiency is core-normalized speedup(k)/min(k, "
                 "cores): equals the headline parallel efficiency "
                 "speedup(k)/k on machines with >= k cores, measures "
                 "pool overhead on smaller ones. Wall-clock rows are "
                 "machine-dependent; refresh with --update-baseline "
                 "on the machine that owns the baseline."),
        "rows": timing["scaling"],
    }


def delta_markdown(fresh, recorded):
    """Markdown comparing a fresh scaling table against the baseline."""
    lines = ["# fleet_scale_mp scaling delta", ""]
    lines.append(f"Fresh run: {fresh['cores']} core(s), floor "
                 f"{fresh['efficiency_floor']}.")
    if recorded:
        lines.append(f"Baseline:  {recorded.get('cores', '?')} core(s).")
    lines += ["", "| workers | homes/s | speedup | eff (core-norm) "
              "| eff raw | baseline homes/s | baseline eff |",
              "|---:|---:|---:|---:|---:|---:|---:|"]
    recorded_rows = {row["workers"]: row
                     for row in (recorded or {}).get("rows", [])}
    for row in fresh["rows"]:
        base = recorded_rows.get(row["workers"], {})
        lines.append(
            f"| {row['workers']} | {row['homes_per_sec']} "
            f"| {row['speedup']} | {row['efficiency']} "
            f"| {row['efficiency_raw']} "
            f"| {base.get('homes_per_sec', '—')} "
            f"| {base.get('efficiency', '—')} |")
    lines.append("")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("summary", help="bench summary JSON "
                                        "(repro bench --suite scale)")
    parser.add_argument("--baseline", default="benchmarks/baseline.json")
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR)
    parser.add_argument("--markdown", default="",
                        help="write the scaling delta table here")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline's scaling_mp table "
                             "from this measurement")
    args = parser.parse_args(argv)

    timing = load_measurement(args.summary)
    fresh = build_table(timing, args.floor)

    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except OSError:
        baseline = None
    recorded = (baseline or {}).get("scaling_mp")

    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(delta_markdown(fresh, recorded))
        print(f"wrote {args.markdown}")

    if args.update_baseline:
        if baseline is None:
            raise SystemExit(f"cannot update missing baseline "
                             f"{args.baseline}")
        baseline["scaling_mp"] = fresh
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"updated scaling_mp in {args.baseline}")

    top = fresh["rows"][-1]
    efficiency = top["efficiency"]
    cores = fresh["cores"]
    verdict = (f"workers={top['workers']}: core-normalized efficiency "
               f"{efficiency} (floor {args.floor}, {cores} cores)")
    if efficiency < args.floor:
        if cores >= GATE_MIN_CORES:
            print(f"FAIL: {verdict}", file=sys.stderr)
            return 1
        print(f"WARN (not gated below {GATE_MIN_CORES} cores): "
              f"{verdict}", file=sys.stderr)
        return 0
    print(f"OK: {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
