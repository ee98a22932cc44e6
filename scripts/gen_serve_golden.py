#!/usr/bin/env python3
"""Regenerate tests/fixtures/serve-golden.json: what a served hub reports.

The sweeps golden pins the rows the figures report; this file pins the
served path — named bank routines submitted through admission, run on
long-lived homes that are never reset.  For every visibility model it
records the sha256 of ``ServeHub.final_report_json()`` and the
congruence oracle's violation list for one seeded virtual-paced
closed-loop run (2 homes x 8 tenants x 60 tickets each), the shape
``repro serve --homes 2 --tenants 8 --routines 60`` runs.  Any change
to how an invocation reaches a controller, or to what a run records,
shows up as a fixture diff.

Usage::

    PYTHONPATH=src python scripts/gen_serve_golden.py          # rewrite
    PYTHONPATH=src python scripts/gen_serve_golden.py --check  # exit 1 on drift
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve import (ServeConfig, ServeHub, build_serve_home,  # noqa: E402
                         run_closed_loop)
from repro.sim.random import derive_seed  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "fixtures" / "serve-golden.json"
MODELS = ("wv", "gsv", "psv", "ev", "occ")
SEED = 7
HOMES = 2
TENANTS = 8
TICKETS = 60


def build_entry(model: str) -> dict:
    """One model's served run: report digest and oracle violations."""
    homes = {f"home-{i}": build_serve_home(
        model=model, seed=derive_seed(SEED, f"home-{i}"))
        for i in range(HOMES)}
    hub = ServeHub(homes, ServeConfig())
    for i in range(TENANTS):
        hub.add_tenant(f"t{i}")
    run_closed_loop(hub, per_tenant=TICKETS, seed=SEED)
    report = hub.final_report_json().encode("utf-8")
    return {
        "final_report_sha256": hashlib.sha256(report).hexdigest(),
        "oracle_violations": {
            name: [violation.to_dict() for violation in oracle.violations]
            for name, oracle in hub.oracle_reports().items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="rerun every model and exit 1 if the "
                             "committed fixture drifts")
    args = parser.parse_args()
    fresh = {model: build_entry(model) for model in MODELS}
    if not args.check:
        GOLDEN_PATH.write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {GOLDEN_PATH} ({len(fresh)} entries)")
        return 0
    committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    drift = [model for model in sorted(set(fresh) | set(committed))
             if committed.get(model) != fresh.get(model)]
    for model in drift:
        print(f"DRIFT: {model} no longer serves the committed report")
    if not drift:
        print(f"ok: {len(fresh)} entries")
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main())
