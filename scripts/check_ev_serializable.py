#!/usr/bin/env python3
"""The EV serializability gate: seeded micro homes under leases, every
cell judged by the oracle.

Seeds 0-199 each draw one micro home (R 10-60, ρ in {2, 4, 8, 16},
6-25 devices, L in {0, 10, 30} % long routines, device failures and
best-effort commands) and run it under EV with the Timeline and JiT
schedulers, each with serial and parallel plans.  Exits 1 naming every
cell whose run ``metrics.oracle.check_run`` rejects, or whose lineage
table still retains an order, or still holds a closure bit for some
routine, once every routine has finished.

Usage::

    PYTHONPATH=src python scripts/check_ev_serializable.py

A wider sweep is the same loop over more seeds, e.g.
``python -c "import check_ev_serializable as c; c.sweep(range(500))"``
from ``scripts/``.
"""

import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.hub.safehome import SafeHome  # noqa: E402
from repro.metrics.oracle import check_run  # noqa: E402
from repro.workloads.micro import (MicroParams,  # noqa: E402
                                   generate_microbenchmark)

SEEDS = range(200)
SCHEDULERS = ("timeline", "jit")
EXECUTIONS = ("serial", "parallel")


def draw(seed: int) -> MicroParams:
    """The micro home seed ``seed`` stands for."""
    rng = random.Random(seed)
    return MicroParams(
        routines=rng.randint(10, 60),
        concurrency=rng.choice((2, 4, 8, 16)),
        devices=rng.choice((6, 10, 15, 25)),
        long_routine_pct=rng.choice((0.0, 10.0, 30.0)),
        long_duration_s=rng.choice((60.0, 300.0)),
        failed_device_pct=rng.choice((0.0, 0.0, 10.0, 25.0)),
        restart_after_s=rng.choice((None, 30.0)),
        must_pct=rng.choice((100.0, 50.0)))


def check_cell(params: MicroParams, seed: int, scheduler: str,
               execution: str) -> list:
    """Why one cell fails; empty when it passes."""
    home = SafeHome(visibility="ev", scheduler=scheduler,
                    execution=execution, seed=seed)
    home.load_workload(generate_microbenchmark(params, seed=seed))
    result = home.run()
    problems = [violation.invariant for violation
                in check_run(result, home.initial).violations]
    table = home.controller.table
    if table.order.snapshot():
        problems.append("retained order not empty at quiescence")
    if table.closure.bit:
        problems.append(f"routines {sorted(table.closure.bit)} still hold "
                        "a closure bit at quiescence")
    return problems


def sweep(seeds) -> int:
    failed = cells = 0
    for seed in seeds:
        params = draw(seed)
        for scheduler in SCHEDULERS:
            for execution in EXECUTIONS:
                cells += 1
                problems = check_cell(params, seed, scheduler, execution)
                if problems:
                    failed += 1
                    print(f"FAIL seed={seed} {scheduler}/{execution} "
                          f"{params}: {problems}")
    print(f"{cells - failed} of {cells} EV cells serializable")
    return 1 if failed else 0


def main() -> int:
    return sweep(SEEDS)


if __name__ == "__main__":
    raise SystemExit(main())
