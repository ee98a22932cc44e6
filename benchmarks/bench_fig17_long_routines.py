"""Fig 17 — impact of long-running routines on EV/Timeline.

Paper shapes: longer long-commands (|L|) spread routines out in time and
*reduce* temporary incongruence, while raising order mismatch; a higher
fraction of long routines (L%) raises conflict and temporary
incongruence while order mismatch falls (post-leases dominate).  Order
mismatch stays low overall (3-10%).

Shape assertions over the registered ``long_routines`` sweep.
"""

from repro.bench import call
from repro.experiments.report import print_table


def test_fig17_long_routines():
    data = call("long_routines")["metrics"]
    print_table("Fig 17a: long-command duration sweep (EV/TL)",
                data["duration_sweep"])
    print_table("Fig 17b: long-routine percentage sweep (EV/TL)",
                data["pct_sweep"])

    duration_rows = data["duration_sweep"]
    # Longer |L| -> temporally spread routines -> less temporary
    # incongruence.
    assert duration_rows[-1]["temp_incong"] <= \
        duration_rows[0]["temp_incong"] + 0.05

    pct_rows = data["pct_sweep"]
    # More long routines -> more conflict -> more temporary
    # incongruence than the all-short baseline.
    assert pct_rows[-1]["temp_incong"] >= pct_rows[0]["temp_incong"] - 0.05

    # Order mismatch stays low (paper: 3-10%).
    for row in duration_rows + pct_rows:
        assert row["order_mismatch"] <= 0.25
