"""Fig 2 / Table 1 — the 5-routine example under GSV, PSV and EV.

Paper: GSV finishes in 8 time units, PSV in 5, EV in 3; EV shows
temporary incongruence but a serially equivalent end state.

Shape assertions over the registered ``example_timeline`` smoke benchmark.
"""

import pytest

from benchmarks.conftest import run_once
from repro.bench import call
from repro.experiments.report import print_table


def test_fig02_example_timeline(benchmark):
    rows = run_once(benchmark, call,
                    "example_timeline")["metrics"]["rows"]
    print_table("Fig 2: five concurrent routines (time units of 60s)",
                rows)
    by_model = {row["model"]: row for row in rows}
    assert by_model["gsv"]["makespan_units"] == pytest.approx(8, abs=0.5)
    assert by_model["psv"]["makespan_units"] == pytest.approx(5, abs=0.5)
    assert by_model["ev"]["makespan_units"] == pytest.approx(3, abs=0.5)
    # Latencies order exactly as Table 1 predicts.
    assert by_model["ev"]["mean_latency_units"] < \
        by_model["psv"]["mean_latency_units"] < \
        by_model["gsv"]["mean_latency_units"]
    # Serial equivalence holds for every model (Table 1 "End State").
    assert all(row["final_serializable"] for row in rows)
    # Only EV shows temporary incongruence (Table 1 "User Visibility").
    assert by_model["gsv"]["temporary_incongruence"] == 0
    assert by_model["psv"]["temporary_incongruence"] == 0
