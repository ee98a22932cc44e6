"""Fig 15a-c — lock-leasing ablation and stretch factor under the
Timeline scheduler.

Paper: turning both lease kinds off raises latency 3x-5.5x; disabling
post-leases hurts more (71-107%) than disabling pre-leases (29-50%);
disabling leases reduces temporary incongruence; the stretch-factor
distribution first widens then narrows as routines grow.

Shape assertions over the registered ``leasing`` and ``stretch`` sweeps.
"""

from repro.bench import call
from repro.experiments.report import print_table


def test_fig15ab_leasing_ablation():
    rows = call("leasing")["metrics"]["rows"]
    print_table("Fig 15a/15b: leasing ablation (EV/TL)", rows)

    def lat(variant, rho):
        return next(row["lat_p50"] for row in rows
                    if row["variant"] == variant and row["rho"] == rho)

    def incong(variant, rho):
        return next(row["temp_incong"] for row in rows
                    if row["variant"] == variant and row["rho"] == rho)

    for rho in (4, 8):
        # Leasing reduces latency; post-leases matter more than
        # pre-leases (paper: 71-107% vs 29-50% increases).
        assert lat("both-on", rho) < lat("both-off", rho)
        assert lat("post-off", rho) >= lat("pre-off", rho) * 0.9
        # Disabling leases reduces temporary incongruence (Fig 15b).
        assert incong("both-off", rho) <= incong("both-on", rho)


def test_fig15c_stretch_factor():
    rows = call("stretch")["metrics"]["rows"]
    print_table("Fig 15c: stretch factor vs routine size", rows)
    # Stretch exists under contention but stays bounded.
    for row in rows:
        assert row["stretch_p50"] >= 1.0
        assert row["stretch_p99"] < 20.0
