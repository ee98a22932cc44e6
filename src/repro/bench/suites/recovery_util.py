"""Shared crash-and-recover step of the durable-hub recovery benchmarks.

Used by the ``recovery_sweep`` entry and ``benchmarks/bench_recovery.py``.
"""

from typing import Tuple

from repro.hub.durability import CrashPlan, RecoveryReport, run_crashing
from repro.hub.safehome import SafeHome
from repro.workloads.chaos import chaos_home, chaos_workload


def crash_and_recover(repeats: int, checkpoint_every: int = 32
                      ) -> Tuple[SafeHome, RecoveryReport]:
    """Run ``repeats`` copies of the chaos scene on a durable EV home,
    crash one event before its end, recover; return (home, report)."""
    arrivals = chaos_workload(7).arrivals
    # A probe that sizes the run, then the victim: each also runs shifted
    # copies of the scene, so the WAL grows with `repeats`.
    probe, home = [chaos_home("ev", seed=7, checkpoint_every=checkpoint_every)
                   for _ in range(2)]
    for twin in (probe, home):
        for round_index in range(1, repeats):
            for routine, at in arrivals:
                twin.invoke(routine, at=at + 20.0 * round_index)
    probe.run()
    plan = CrashPlan(after_events=max(1, probe.sim.events_processed - 1))
    [report] = run_crashing(home, [plan], home.recover)
    home.run()
    return home, report
