"""Fleet scale-out: the engine at N ∈ {1, 10, 100, 1000} homes.

Shape assertions over the fleet engine and the registered
``fleet_scale_sweep`` sweep (``repro figures fleet_scale_sweep`` prints
its table; ``repro fleet --stats`` times one fleet).  Throughput is judged by the perf ledger's ``fleet_mix`` and
``fleet_process`` workloads, not here.
"""

import pytest

from benchmarks.conftest import run_once
from repro.bench import call
from repro.experiments.report import print_table
from repro.fleet import FleetConfig, FleetEngine

SCALES = (1, 10, 100, 1000)


def run_fleet_scale(homes: int, seed: int = 42):
    engine = FleetEngine(FleetConfig(
        homes=homes, seed=seed,
        # The scale sweep measures the engine; the O(n!)-ish
        # final-serializability search is benchmarked elsewhere.
        check_final=False))
    return engine.run()


@pytest.mark.parametrize("homes", SCALES)
def test_fleet_scale(benchmark, homes):
    result = run_once(benchmark, run_fleet_scale, homes)
    assert result.aggregate["homes"] == homes
    assert result.aggregate["routines"] > 0
    print_table(f"fleet N={homes}", [{
        "homes": homes,
        "routines": result.aggregate["routines"],
        "homes_per_sec": round(result.homes_per_second, 1),
        "lat_p99": round(result.aggregate["latency"]["p99"], 2),
        "abort_rate": round(result.aggregate["abort_rate"], 4),
    }])


def test_fleet_scale_sweep_matches_direct_run(benchmark):
    """The registered sweep reports the same aggregate as a direct run."""
    rows = run_once(benchmark, call, "fleet_scale_sweep",
                    scales=(25,))["metrics"]["rows"]
    direct = run_fleet_scale(25)
    assert [row["homes"] for row in rows] == [25]
    assert rows[0]["routines"] == direct.aggregate["routines"]
