"""Serial vs parallel plan execution on the wide fan-out workload.

Shape assertions over the comparison behind the registered
``parallel_exec`` smoke benchmark (the logic lives in
:mod:`repro.bench.suites.perf`; ``repro bench --filter parallel_exec
--json out.json`` writes the deterministic per-model table).
"""

import pytest

from benchmarks.conftest import run_once
from repro.bench.suites.perf import (PARALLEL_EXEC_MODELS,
                                     parallel_exec_compare)


@pytest.mark.parametrize("model", PARALLEL_EXEC_MODELS)
def test_parallel_speedup(benchmark, model):
    """The wide fan-out routine's makespan drops ≥1.5× under parallel
    plans for every model (disjoint footprints: pure planner win)."""
    row = run_once(benchmark, parallel_exec_compare, model)
    assert row["parallel"]["committed"] == row["serial"]["committed"]
    assert row["speedup"] is not None and row["speedup"] >= 1.5, row
