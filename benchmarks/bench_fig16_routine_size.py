"""Fig 16 — impact of routine size C (a-c) and device popularity α (d).

Paper shapes: GSV's latency grows fastest with C; PSV starts near
EV/WV for small routines but approaches GSV as C grows; EV stays the
fastest serializing model; rising α (popularity skew) slows PSV toward
GSV while EV stays close to WV.

Shape assertions over the registered ``routine_size`` and
``device_popularity`` benchmarks.
"""

from benchmarks.conftest import run_once
from repro.bench import call
from repro.experiments.report import print_table


def _lat(rows, model, key, value):
    return next(row["lat_p50"] for row in rows
                if row["model"] == model and row[key] == value)


def test_fig16abc_routine_size(benchmark):
    rows = run_once(benchmark, call, "routine_size")["metrics"]["rows"]
    print_table("Fig 16a-c: impact of commands per routine", rows)

    # GSV latency rises with C.
    assert _lat(rows, "gsv", "commands", 8) > \
        _lat(rows, "gsv", "commands", 1)
    for c in (3, 6, 8):
        # EV stays faster than GSV and no slower than PSV.
        assert _lat(rows, "ev", "commands", c) < \
            _lat(rows, "gsv", "commands", c)
        assert _lat(rows, "ev", "commands", c) <= \
            _lat(rows, "psv", "commands", c) * 1.05
    # PSV approaches GSV as routines grow (ratio shrinks with C).
    early_gap = _lat(rows, "gsv", "commands", 2) / \
        _lat(rows, "psv", "commands", 2)
    late_gap = _lat(rows, "gsv", "commands", 8) / \
        _lat(rows, "psv", "commands", 8)
    assert late_gap < early_gap

    # Fig 16c: order mismatch stays low for EV (paper: 3-10%).
    for row in rows:
        if row["model"] == "ev":
            assert row["order_mismatch"] < 0.2


def test_fig16d_device_popularity(benchmark):
    rows = run_once(benchmark, call,
                    "device_popularity")["metrics"]["rows"]
    print_table("Fig 16d: device popularity (Zipf alpha) vs latency",
                rows)
    # EV stays close to WV even under skew (within 2x here).
    for alpha in (0.05, 0.5, 1.0):
        assert _lat(rows, "ev", "alpha", alpha) <= \
            _lat(rows, "wv", "alpha", alpha) * 2.0
    # Conflicts slow PSV down toward GSV as skew rises.
    assert _lat(rows, "psv", "alpha", 1.0) > \
        _lat(rows, "psv", "alpha", 0.0)
