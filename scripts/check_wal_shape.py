#!/usr/bin/env python3
"""The WAL-shape gate: a durable hub journals what replay cannot
re-derive, nothing else.

Runs one seeded 100-routine durable EV micro home onto disk and fails
(exit 1) if any record frame of its segments has an observation type
other than ``checkpoint`` — observations are folded into the rolling
digest the seals carry, never framed — or if the log costs more than
``BYTES_PER_ROUTINE_CEILING`` bytes per routine (about twice the 492 B
measured when observations stopped being framed; the framed log of the
same home cost 3,123 B).

Usage::

    PYTHONPATH=src python scripts/check_wal_shape.py
"""

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.hub.durability.storage import scan_wal_dir  # noqa: E402
from repro.hub.durability.wal import OBSERVATION_TYPES  # noqa: E402
from repro.hub.safehome import SafeHome  # noqa: E402
from repro.workloads.micro import (MicroParams,  # noqa: E402
                                   generate_microbenchmark)

ROUTINES, SEED = 100, 42
BYTES_PER_ROUTINE_CEILING = 1000


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="wal-shape-") as wal_dir:
        home = SafeHome(visibility="ev", seed=SEED, wal_dir=wal_dir)
        home.load_workload(generate_microbenchmark(
            MicroParams(routines=ROUTINES), seed=SEED))
        home.run()
        home.close_wal()
        scan = scan_wal_dir(wal_dir)
    framed = sorted({record.type for record in scan.records}
                    & (OBSERVATION_TYPES - {"checkpoint"}))
    per_routine = sum(seg.bytes for seg in scan.segments) / ROUTINES
    print(f"{len(scan.records)} record frames for "
          f"{home.wal.observation_count} observations; "
          f"{per_routine:.0f} B per routine "
          f"(ceiling {BYTES_PER_ROUTINE_CEILING})")
    if framed:
        print(f"FAIL: observation frames in the log: {framed}")
    if per_routine > BYTES_PER_ROUTINE_CEILING:
        print("FAIL: the log outgrew its bytes-per-routine ceiling")
    return 1 if framed or per_routine > BYTES_PER_ROUTINE_CEILING else 0


if __name__ == "__main__":
    raise SystemExit(main())
