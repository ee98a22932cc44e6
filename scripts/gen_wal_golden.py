#!/usr/bin/env python3
"""Regenerate tests/fixtures/wal-golden.json: the bytes of a healthy log.

The fsck fixtures pin what *damaged* logs scan and salvage to; this
file pins what a healthy durable hub writes.  For every visibility
model under both plan strategies one seeded 120-routine micro home
(with device failures, so detections, aborts and rollbacks are in the
log) is crashed at event 300, recovered by verified replay, run on and
closed; the fixture records the sha256 of every segment file, the
checkpoint digest list and ``RecoveryReport.row()``.  Any change to the
frame format, a record payload, the checkpoint state or its digest
shows up as a fixture diff (``tests/test_storage_wal.py``).  One more
entry, ``fleet``, pins the fleet container the same way: the sha256 of
the merged log and of its index for a seeded 3-home durable fleet.

Usage::

    PYTHONPATH=src python scripts/gen_wal_golden.py          # rewrite
    PYTHONPATH=src python scripts/gen_wal_golden.py --check  # exit 1 on drift
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet import FleetConfig, FleetEngine  # noqa: E402
from repro.fleet.spool import INDEX_NAME, MERGED_NAME  # noqa: E402
from repro.hub.durability.storage import list_segments  # noqa: E402
from repro.hub.safehome import SafeHome  # noqa: E402
from repro.workloads.micro import (MicroParams,  # noqa: E402
                                   generate_microbenchmark)

GOLDEN_PATH = REPO_ROOT / "tests" / "fixtures" / "wal-golden.json"

MODELS = ("wv", "gsv", "psv", "ev", "occ")
EXECUTIONS = ("serial", "parallel")
SEED, CRASH_AFTER_EVENTS = 15, 300
# No long routines and a 5 s detector period keep the ten cells to
# ~1.5 s of tier-1 time; the failed devices still get aborts into the log.
PARAMS = dict(routines=120, concurrency=4, long_routine_pct=0.0,
              failed_device_pct=12.0, restart_after_s=60.0)
DETECTOR_PING_PERIOD_S = 5.0
# A log is mostly its inputs (observations are folded, not framed), so
# the writer's 256 KiB default would never roll here: at 48 KiB the EV
# and OCC cells keep a second segment in the fixture, as they had.
SEGMENT_MAX_BYTES = 48 * 1024
FLEET_CONFIG = dict(homes=3, seed=SEED, crashes=1)


def build_cell(model: str, execution: str, wal_dir: str) -> dict:
    """Crash → replay-recover → run on → close, for one (model, strategy)."""
    home = SafeHome(visibility=model, execution=execution, seed=SEED,
                    detector_ping_period_s=DETECTOR_PING_PERIOD_S,
                    durability=True, wal_dir=wal_dir)
    home.load_workload(generate_microbenchmark(MicroParams(**PARAMS),
                                               seed=SEED))
    home.durability.storage.segment_max_bytes = SEGMENT_MAX_BYTES
    home.crash(after_events=CRASH_AFTER_EVENTS)
    home.run()
    assert home.crashed, f"{model}/{execution}: the crash never fired"
    recovery = home.recover(mode="replay")
    # Recovery swapped in the staged incarnation's writer.
    home.durability.storage.segment_max_bytes = SEGMENT_MAX_BYTES
    home.run()
    home.close_wal()
    return {
        "segments": {
            name: hashlib.sha256(
                (Path(wal_dir) / name).read_bytes()).hexdigest()
            for name in list_segments(wal_dir)},
        "checkpoint_digests": [checkpoint.digest for checkpoint
                               in home.durability.checkpoints],
        "recovery": recovery.row(),
    }


def build_fleet(wal_dir: str) -> dict:
    """The merged log + index a seeded 3-home durable fleet leaves."""
    FleetEngine(FleetConfig(**FLEET_CONFIG, wal_dir=wal_dir)).run()
    return {name: hashlib.sha256(
        (Path(wal_dir) / name).read_bytes()).hexdigest()
        for name in (MERGED_NAME, INDEX_NAME)}


def build_golden() -> dict:
    golden = {}
    with tempfile.TemporaryDirectory(prefix="wal-golden-") as scratch:
        golden["fleet"] = build_fleet(str(Path(scratch) / "fleet"))
        for model in MODELS:
            for execution in EXECUTIONS:
                golden[f"{model}/{execution}"] = build_cell(
                    model, execution,
                    str(Path(scratch) / f"{model}-{execution}"))
    return golden


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="rebuild in a scratch dir and exit 1 if the "
                             "committed fixture drifts")
    args = parser.parse_args()
    fresh = build_golden()
    if not args.check:
        GOLDEN_PATH.write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {GOLDEN_PATH} ({len(fresh)} entries)")
        return 0
    committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    drift = [cell for cell in fresh if committed.get(cell) != fresh[cell]]
    for cell in drift:
        print(f"DRIFT: {cell} no longer writes the committed bytes")
    if not drift:
        print(f"ok: {len(fresh)} entries")
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main())
