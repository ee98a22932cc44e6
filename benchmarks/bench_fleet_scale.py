"""Fleet scale-out: the engine at N ∈ {1, 10, 100, 1000} homes.

Shape assertions over the fleet engine and the registered
``fleet_scale_sweep`` sweep (``repro figures fleet_scale_sweep`` prints
its table).  Throughput is measured by the perf ledger's ``fleet_mix``
and ``fleet_process`` workloads (``fleet.homes_per_s``), not here.
"""

import pytest

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
def test_fleet_scale(homes):
    result = run_fleet_scale(homes)
    assert result.aggregate["homes"] == homes
    assert result.aggregate["routines"] > 0
    print_table(f"fleet N={homes}", [{
        "homes": homes,
        "routines": result.aggregate["routines"],
        "lat_p99": round(result.aggregate["latency"]["p99"], 2),
        "abort_rate": round(result.aggregate["abort_rate"], 4),
    }])


def test_fleet_scale_sweep_matches_direct_run():
    """The registered sweep reports the same aggregate as a direct run."""
    rows = call("fleet_scale_sweep", scales=(25,))["metrics"]["rows"]
    direct = run_fleet_scale(25)
    assert [row["homes"] for row in rows] == [25]
    assert rows[0]["routines"] == direct.aggregate["routines"]
