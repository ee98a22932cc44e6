"""Fig 1 — Concurrency causes incongruent end states under Weak
Visibility.

Paper: two routines (all-ON / all-OFF) over 2-15 TP-Link devices; the
fraction of non-serialized end states grows with device count and
shrinks as R2's start offset grows.

Shape assertions over the registered ``weak_visibility`` benchmark
(``repro bench --filter weak_visibility``).
"""

from benchmarks.conftest import run_once
from repro.bench import call
from repro.experiments.report import print_table


def test_fig01_incongruence_vs_devices(benchmark):
    rows = run_once(benchmark, call,
                    "weak_visibility")["metrics"]["rows"]
    print_table("Fig 1: fraction of incongruent end states (WV)", rows)

    by_offset = {}
    for row in rows:
        by_offset.setdefault(row["offset_s"], []).append(
            row["incongruent_fraction"])
    # Shape 1: incongruence grows with device count (offset 0).
    zero = by_offset[0.0]
    assert zero[-1] > zero[0]
    assert zero[-1] >= 0.5
    # Shape 2: larger offsets reduce incongruence.
    assert sum(by_offset[2.0]) <= sum(by_offset[0.0])
