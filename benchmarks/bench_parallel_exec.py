"""Serial vs parallel plan execution on the wide fan-out workload.

Shape assertions over the comparison behind the registered
``parallel_exec`` sweep (the logic lives in
:mod:`repro.bench.suites.perf`; ``repro figures parallel_exec`` prints
the per-model table).
"""

import pytest

from repro.bench.suites.perf import (PARALLEL_EXEC_MODELS,
                                     parallel_exec_compare)


@pytest.mark.parametrize("model", PARALLEL_EXEC_MODELS)
def test_parallel_speedup(model):
    """The wide fan-out routine's makespan drops ≥1.5× under parallel
    plans for every model (disjoint footprints: pure planner win)."""
    serial, parallel = parallel_exec_compare(model)
    assert parallel["committed"] == serial["committed"]
    assert parallel["speedup"] is not None and parallel["speedup"] >= 1.5, \
        parallel
