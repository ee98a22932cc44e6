"""Ablations of SafeHome's fixed design choices (beyond the paper's
figures; DESIGN.md motivates each sweep).

* leniency factor (paper fixes 1.1x),
* Timeline duration-estimate error,
* failure-detector ping period (paper fixes 1 s),
* network jitter behind Fig 1's incongruence.

Shape assertions over the registered ``ablations`` sweep; each
test requests exactly one of its sweeps.
"""

from repro.bench import call
from repro.experiments.report import print_table


def _sweep(name, **params):
    return call("ablations", sweeps=(name,), **params)["metrics"][name]


def test_ablation_leniency():
    rows = _sweep("leniency")
    print_table("Ablation: lease-revocation leniency factor "
                "(estimate error 50%)", rows)
    # Tighter leniency under noisy estimates -> no fewer aborts than
    # generous leniency.
    assert rows[0]["abort_rate"] >= rows[-1]["abort_rate"]


def test_ablation_estimate_error():
    rows = _sweep("estimate_error")
    print_table("Ablation: Timeline duration-estimate error", rows)
    # Even 100% estimate error must not break execution (placements
    # degrade gracefully; work-conserving execution absorbs it).
    for row in rows:
        assert row["abort_rate"] <= 0.2
    # Perfect estimates are no slower than wildly wrong ones.
    assert rows[0]["lat_p50"] <= rows[-1]["lat_p50"] * 1.5


def test_ablation_detector_period():
    rows = _sweep("detector_period")
    print_table("Ablation: failure-detector ping period", rows)
    # Detection lag grows with the ping period and is bounded by it
    # (plus latency/timeout), except when implicit detection fires first.
    lags = [row["detection_lag_mean_s"] for row in rows]
    assert lags[0] <= lags[-1]
    for row in rows:
        assert row["detection_lag_mean_s"] <= row["ping_period_s"] + 1.0


def test_ablation_network_jitter():
    rows = _sweep("network_jitter", jitter_trials=30)
    print_table("Ablation: network jitter vs WV incongruence (Fig 1's "
                "mechanism)", rows)
    # Zero jitter -> deterministic ordering -> no incongruence; jitter
    # creates it.
    assert rows[0]["incongruent_fraction"] == 0.0
    assert rows[-1]["incongruent_fraction"] > 0.2
