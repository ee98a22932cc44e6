#!/usr/bin/env python3
"""Regenerate the golden corrupt-WAL fixtures under tests/fixtures/fsck.

Each fixture directory holds the raw segment bytes of a deterministic
durable chaos run damaged by one seeded fault, plus ``expected.json`` —
the byte-exact ``repro fsck --salvage`` report the damaged log must
keep producing forever.  ``tests/test_fsck.py`` replays fsck over the
committed bytes and compares reports byte for byte, so any drift in the
frame format, the scanner's classification or the salvage pipeline
shows up as a fixture diff, never as a silent behavior change.

``fleet-flipped-bit`` is the fleet artifact's fixture: the merged log
and index of a seeded 2-home durable fleet with one bit flipped inside
a record payload of home 1, and the expected report both without
``--salvage`` (exit 2) and with it (exit 1).

Usage::

    PYTHONPATH=src python scripts/gen_fsck_fixtures.py          # rewrite
    PYTHONPATH=src python scripts/gen_fsck_fixtures.py --check  # exit 1 on drift
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet import FleetConfig, FleetEngine  # noqa: E402
from repro.hub.durability.faults import (inject_fault,  # noqa: E402
                                         inject_fleet_fault)
from repro.hub.durability.fsck import fsck_path  # noqa: E402
from repro.workloads.chaos import chaos_home  # noqa: E402

FIXTURE_ROOT = REPO_ROOT / "tests" / "fixtures" / "fsck"

MODEL, EXECUTION, SEED, CHECKPOINT_EVERY = "ev", "serial", 3, 8
FLEET_CONFIG = dict(homes=2, seed=SEED, scenario="cooling", crashes=1)
FLEET_VICTIM = 1


def damaged_home(target: str, kind: str) -> dict:
    home = chaos_home(MODEL, EXECUTION, SEED, CHECKPOINT_EVERY,
                      wal_dir=target)
    home.run()
    home.close_wal()
    return {
        "injection": inject_fault(target, kind, seed=SEED),
        "report": fsck_path(target, salvage=True).to_dict(),
    }


def damaged_fleet(target: str, kind: str) -> dict:
    FleetEngine(FleetConfig(**FLEET_CONFIG, wal_dir=target)).run()
    expected = {
        "injection": inject_fleet_fault(target, FLEET_VICTIM, kind,
                                        seed=SEED),
        "report": fsck_path(target).to_dict(),
        "report_salvage": fsck_path(target, salvage=True).to_dict(),
    }
    damage = expected["report"]["homes"][str(FLEET_VICTIM)]["corruption"]
    assert damage["type"] == "record", damage
    return expected


#: name -> (builder, fault kind).  One fixture per damage class the
#: scanner distinguishes — crash-consistent tail, mid-log bit rot, seal
#: loss — and the bit rot once more inside a fleet log.
FIXTURES = {
    "torn-tail": (damaged_home, "torn-tail"),
    "flipped-bit": (damaged_home, "bit-flip"),
    "bad-seal": (damaged_home, "missing-seal"),
    "fleet-flipped-bit": (damaged_fleet, "bit-flip"),
}


def build_fixture(name: str, root: Path) -> dict:
    builder, kind = FIXTURES[name]
    target = root / name
    if target.exists():
        shutil.rmtree(target)
    target.mkdir(parents=True)
    expected = builder(str(target), kind)
    (target / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a scratch dir and exit 1 "
                             "if the committed fixtures drift")
    args = parser.parse_args()

    if not args.check:
        for name in FIXTURES:
            expected = build_fixture(name, FIXTURE_ROOT)
            print(f"wrote {FIXTURE_ROOT / name} "
                  f"(status={expected['report']['status']}, "
                  f"exit={expected['report']['exit_code']})")
        return 0

    import tempfile

    drift = 0
    with tempfile.TemporaryDirectory(prefix="fsck-fixtures-") as scratch:
        for name in FIXTURES:
            fresh = build_fixture(name, Path(scratch))
            committed_path = FIXTURE_ROOT / name / "expected.json"
            if not committed_path.exists():
                print(f"MISSING: {committed_path}")
                drift += 1
                continue
            committed = json.loads(committed_path.read_text())
            if committed != fresh:
                print(f"DRIFT: {committed_path} no longer matches a "
                      f"fresh build")
                drift += 1
            else:
                print(f"ok: {name}")
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main())
