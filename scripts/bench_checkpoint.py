#!/usr/bin/env python3
"""What one checkpoint costs, on the durable ledger workload's shape.

Runs the ``durable_home`` pass by hand: 4 durable EV homes (R=400,
rho=4, timeline scheduler, serial plans) on an on-disk WAL, each
crashed at 60 % of its non-durable twin's events, recovered by verified
replay, run on, closed and scanned.  Every ``take_checkpoint()`` call
(live ones and the ones replay re-derives) is timed, and so is the CPU
time of the whole pass.  The numbers move with the box's load: compare
two commits by alternating their runs.

Usage::

    PYTHONPATH=src python scripts/bench_checkpoint.py [--passes 3] [--seed 42]

Prints per-checkpoint p50/p99/mean in microseconds, the checkpoint
count per pass and the CPU seconds of each pass.
"""

import argparse
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.hub.durability import DurabilityConfig  # noqa: E402
from repro.hub.durability.recovery import DurabilityManager  # noqa: E402
from repro.hub.durability.storage import scan_wal_dir  # noqa: E402
from repro.hub.safehome import SafeHome  # noqa: E402
from repro.workloads.micro import (MicroParams,  # noqa: E402
                                   generate_microbenchmark)

HOMES, ROUTINES, CONCURRENCY, CRASH_FRACTION = 4, 400, 4, 0.6


def home_seed(seed: int, index: int) -> int:
    """The ledger's per-home child seed (31 bits)."""
    return random.Random(seed * 1000003 + index).randrange(1, 2 ** 31)


def inputs(seed: int):
    out = []
    for index in range(HOMES):
        child = home_seed(seed, index)
        workload = generate_microbenchmark(
            MicroParams(routines=ROUTINES, concurrency=CONCURRENCY),
            seed=child)
        twin = SafeHome(visibility="ev", seed=child)
        twin.load_workload(workload)
        twin.run()
        out.append((child, workload,
                    max(1, int(twin.sim.events_processed * CRASH_FRACTION))))
    return out


def one_pass(homes):
    """CPU seconds of one pass, and the checkpoint count."""
    checkpoints = 0
    started = time.process_time()
    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as root:
        for index, (seed, workload, crash_after) in enumerate(homes):
            wal_dir = str(Path(root) / f"h{index}")
            home = SafeHome(visibility="ev", scheduler="timeline",
                            execution="serial", seed=seed, wal_dir=wal_dir)
            home.load_workload(workload)
            home.crash(after_events=crash_after)
            home.run()
            home.recover(mode="replay")
            home.run()
            home.close_wal()
            checkpoints += len(home.durability.checkpoints)
            scan_wal_dir(wal_dir)
    return time.process_time() - started, checkpoints


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    samples = []
    take = DurabilityManager.take_checkpoint

    def timed(manager):
        started = time.perf_counter()
        checkpoint = take(manager)
        samples.append(time.perf_counter() - started)
        return checkpoint

    homes = inputs(args.seed)
    cpu, counts = [], []
    DurabilityManager.take_checkpoint = timed
    try:
        for _ in range(args.passes):
            seconds, count = one_pass(homes)
            cpu.append(seconds)
            counts.append(count)
    finally:
        DurabilityManager.take_checkpoint = take
    micros = sorted(s * 1e6 for s in samples)
    p99 = micros[min(len(micros) - 1, int(0.99 * len(micros)))]
    print(f"checkpoints: {len(micros)} timed, {counts[0]} live per pass "
          f"(checkpoint_every={DurabilityConfig().checkpoint_every})")
    print(f"per checkpoint: p50 {statistics.median(micros):.0f} us, "
          f"p99 {p99:.0f} us, mean {statistics.fmean(micros):.0f} us")
    print("pass CPU: " + " ".join(f"{s:.2f}" for s in cpu) + " s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
