"""Hub recovery time vs. WAL length and checkpoint interval.

Recovery is verified deterministic replay (docs/durability.md), so its
cost scales with how much history must be re-executed and re-checked:

* **WAL length** — scaled here by repeating the chaos workload's
  routine set N times before crashing at the very end, so the replayed
  event count grows linearly;
* **checkpoint interval** — more frequent checkpoints mean more digest
  captures during normal execution and more digests to verify during
  recovery, but (with compaction) a shorter observation suffix to
  compare record-by-record.

Shape assertions over the builders behind the registered
``recovery_sweep`` benchmark (:mod:`repro.bench.suites.recovery_util`);
``repro bench --suite full --filter recovery_sweep --json out.json``
writes the sweep's rows.
"""

import pytest

from benchmarks.conftest import run_once
from repro.bench.suites.recovery_util import crash_and_recover

REPEATS = (1, 2, 4, 8)


@pytest.mark.parametrize("repeats", REPEATS)
def test_recovery_scales_with_wal(benchmark, repeats):
    _home, report = run_once(benchmark, crash_and_recover, repeats)
    assert report.replayed_events > 0
    assert report.wal_records > 0


def test_recovery_replay_lengths_grow():
    """More history ⇒ more replayed events (the WAL-length axis)."""
    lengths = [crash_and_recover(n)[1].replayed_events for n in (1, 4)]
    assert lengths[1] > lengths[0]
