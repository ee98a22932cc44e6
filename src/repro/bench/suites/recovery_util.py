"""Shared builders for the durable-hub recovery benchmarks.

Used by the ``recovery_sweep`` entry and ``benchmarks/bench_recovery.py``.
"""

from typing import Tuple

from repro.hub.durability import DurabilityConfig
from repro.hub.safehome import SafeHome
from repro.workloads.chaos import chaos_workload


def build_home(repeats: int, checkpoint_every: int = 32,
               seed: int = 7) -> SafeHome:
    """A durable EV home running ``repeats`` copies of the chaos scene."""
    home = SafeHome(visibility="ev", seed=seed,
                    durability=DurabilityConfig(
                        checkpoint_every=checkpoint_every))
    workload = chaos_workload(seed)
    home.load_workload(workload)
    # Stack additional rounds of the same routines, shifted in time, so
    # the WAL grows linearly with `repeats`.
    for round_index in range(1, repeats):
        offset = 20.0 * round_index
        for routine, at in workload.arrivals:
            home.invoke(routine, at=at + offset)
    return home


def crash_and_recover(repeats: int, checkpoint_every: int = 32
                      ) -> Tuple[SafeHome, object]:
    """Run to near-completion, crash, recover; return (home, report)."""
    probe = build_home(repeats, checkpoint_every)
    probe.run()
    total_events = probe.sim.events_processed

    home = build_home(repeats, checkpoint_every)
    home.crash(after_events=max(1, total_events - 1))
    home.run()
    report = home.recover()
    home.run()
    return home, report
