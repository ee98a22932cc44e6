#!/usr/bin/env python3
"""Regenerate tests/fixtures/sweeps-golden.json: what every sweep reports.

The WAL golden pins the bytes a durable hub writes; this file pins the
rows the paper's figures, the ablations and the other registered sweeps
report.  For every sweep that runs on its own (``registry.sweeps()``)
it records ``{params, events, metrics}`` from one ``registry.call()``:
the registered parameters, the simulator events the call processed
(``repro.sim.engine.total_events_processed``, diffed around it) and
the deterministic ``metrics`` payload (the figure rows) — no
wall-clock field.  Any change to how a home is assembled, seeded,
loaded or analyzed under the experiment runner shows up as a fixture
diff (``tests/test_one_hub.py`` checks every entry but ``failures``,
Fig 13, which is most of the run time; ``--check`` checks all of them).

Usage::

    PYTHONPATH=src python scripts/gen_sweeps_golden.py          # rewrite
    PYTHONPATH=src python scripts/gen_sweeps_golden.py --check  # exit 1 on drift
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import registry  # noqa: E402
from repro.sim.engine import total_events_processed  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "fixtures" / "sweeps-golden.json"


def names() -> list:
    """Every sweep the golden pins, in name order."""
    return list(registry.sweeps())


def build_entry(name: str) -> dict:
    """One sweep's deterministic fields, as they read back from JSON."""
    spec = registry.get(name)
    before = total_events_processed()
    metrics = spec.call()["metrics"]
    entry = {"params": dict(spec.params),
             "events": total_events_processed() - before,
             "metrics": metrics}
    return json.loads(json.dumps(entry))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="rerun every sweep and exit 1 if the "
                             "committed fixture drifts")
    args = parser.parse_args()
    fresh = {name: build_entry(name) for name in names()}
    if not args.check:
        GOLDEN_PATH.write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {GOLDEN_PATH} ({len(fresh)} entries)")
        return 0
    committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    drift = [name for name in sorted(set(fresh) | set(committed))
             if committed.get(name) != fresh.get(name)]
    for name in drift:
        print(f"DRIFT: {name} no longer reports the committed rows")
    if not drift:
        print(f"ok: {len(fresh)} entries")
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main())
