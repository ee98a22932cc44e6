"""Fig 12b — Final Incongruence: 9 concurrent routines, 100 runs; is
the end state equivalent to one of the 9! serial orders?

Paper: WV ends incongruent in a substantial fraction of runs; EV, PSV
and GSV are always serially equivalent.

Shape assertions over the registered ``final_incongruence`` sweep.
"""

from repro.bench import call
from repro.experiments.report import print_table


def test_fig12b_final_incongruence():
    rows = call("final_incongruence")["metrics"]["rows"]
    print_table("Fig 12b: final incongruence "
                "(9 routines, 9! serial orders checked)", rows)
    by_model = {row["model"]: row for row in rows}
    assert by_model["ev"]["final_incongruence"] == 0.0
    assert by_model["psv"]["final_incongruence"] == 0.0
    assert by_model["gsv"]["final_incongruence"] == 0.0
    assert by_model["wv"]["final_incongruence"] > 0.1
