#!/usr/bin/env python3
"""The deep run of the hub state machine, past its pinned examples.

``tests/test_hub_machine.py`` replays one derandomized draw (seed 18 in
``scripts/check.sh``).  This script runs the same ``HubMachine`` once
per seed of a fixed range, each with a large example budget and longer
programs, and prints what the draw exercised as JSON: examples, rule
calls that reach the hub (cancels, crashes, migrations, serves), and
migrations across OCC after a cancel was journaled, the case the
machine once had to skip.  It takes minutes, so it is run by hand::

    PYTHONPATH=src python scripts/explore_hub_machine.py
    PYTHONPATH=src python scripts/explore_hub_machine.py --seeds 4 8

A counterexample stops the hunt with hypothesis's shrunk program and a
traceback (exit 1); check it in as a minimal ``TestCounterexamples``
fixture.
"""

import argparse
import collections
import json
import sys
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from hypothesis import HealthCheck, seed, settings  # noqa: E402
from hypothesis.stateful import run_state_machine_as_test  # noqa: E402

from repro.hub.safehome import SafeHome  # noqa: E402
from repro.serve import ServeHub  # noqa: E402
from tests import test_hub_machine as machine  # noqa: E402


@contextmanager
def counting(counts):
    """Count, per call, what the machine's rules ask of the hub."""
    plug_home, run_crashing = machine.plug_home, machine.run_crashing
    cancel, migrate = SafeHome.cancel, SafeHome.migrate
    serve = ServeHub.serve_until_idle

    def counted_plug_home(*args, **kwargs):
        counts["examples"] += 1
        return plug_home(*args, **kwargs)

    def counted_run_crashing(*args, **kwargs):
        counts["crashes"] += 1
        return run_crashing(*args, **kwargs)

    def counted_cancel(home, *args, **kwargs):
        counts["cancels"] += 1
        return cancel(home, *args, **kwargs)

    def counted_migrate(home, to, *args, **kwargs):
        counts["migrations"] += 1
        if "occ" in (home.controller.model_name, to) and any(
                record.type == "cancelled" for record in home.wal.records):
            counts["migrations_across_occ_after_a_cancel"] += 1
        return migrate(home, to, *args, **kwargs)

    def counted_serve(hub):
        counts["serves"] += 1
        return serve(hub)

    machine.plug_home = counted_plug_home
    machine.run_crashing = counted_run_crashing
    SafeHome.cancel, SafeHome.migrate = counted_cancel, counted_migrate
    ServeHub.serve_until_idle = counted_serve
    try:
        yield
    finally:
        machine.plug_home, machine.run_crashing = plug_home, run_crashing
        SafeHome.cancel, SafeHome.migrate = cancel, migrate
        ServeHub.serve_until_idle = serve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the hub state machine over a seed range.")
    parser.add_argument("--seeds", nargs=2, type=int, default=(0, 4),
                        metavar=("FIRST", "STOP"),
                        help="seeds FIRST..STOP-1 (default: 0 4)")
    parser.add_argument("--examples", type=int, default=1000,
                        help="examples per seed (default: 1000)")
    parser.add_argument("--steps", type=int, default=40,
                        help="rule calls per example (default: 40)")
    args = parser.parse_args(argv)
    config = settings(derandomize=False, database=None, deadline=None,
                      max_examples=args.examples,
                      stateful_step_count=args.steps,
                      suppress_health_check=list(HealthCheck))
    counts = collections.Counter()
    with counting(counts):
        for value in range(*args.seeds):
            run_state_machine_as_test(
                seed(value)(lambda: machine.HubMachine()), settings=config)
            counts["seeds"] += 1
    print(json.dumps(dict(sorted(counts.items())), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
