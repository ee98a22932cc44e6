"""Fig 12a — latency, temporary incongruence and parallelism for the
Morning, Party and Factory scenarios under WV/EV/PSV/GSV.

Paper shapes: EV's latency tracks WV (0-23% worse); GSV's is ~16x worse
at the median with ~3x less parallelism; only EV (among the fast ones)
plus PSV/GSV keep serial equivalence; the Party scenario's long routine
hurts PSV (head-of-line blocking) but not EV.

Shape assertions over the registered ``scenarios`` sweep.
"""

from repro.bench import call
from repro.experiments.report import print_table


def _by(rows, scenario):
    return {row["model"]: row for row in rows
            if row["scenario"] == scenario}


def test_fig12a_scenarios():
    rows = call("scenarios")["metrics"]["rows"]
    print_table("Fig 12a: scenario sweeps", rows)

    for scenario in ("morning", "party"):
        models = _by(rows, scenario)
        # EV tracks WV at the tail (paper: comparable at median and
        # p95; the factory tail is noisier — §7.2 notes EV delays some
        # back-to-back routines there — so we assert its median below).
        assert models["ev"]["lat_p90"] <= models["wv"]["lat_p90"] * 1.5
    for scenario in ("morning", "party", "factory"):
        models = _by(rows, scenario)
        # GSV is far slower and strictly the slowest.
        assert models["gsv"]["lat_p50"] > \
            3 * models["ev"]["lat_p50"]
        # Strict models show no temporary incongruence.
        assert models["gsv"]["temp_incong"] == 0
        assert models["psv"]["temp_incong"] == 0
        # Parallelism: EV >> GSV (paper: ~3x median).
        assert models["ev"]["parallelism"] > \
            2 * models["gsv"]["parallelism"]

    # Morning + factory: EV's median stays close to WV's (0-23.1% in
    # the paper; slack for reduced trials).
    for scenario in ("morning", "factory"):
        models = _by(rows, scenario)
        assert models["ev"]["lat_p50"] <= models["wv"]["lat_p50"] * 1.6

    # Party: the long routine head-of-line blocks PSV, not EV (the
    # paper's "notable exception": PSV's benefit over GSV shrinks).
    party = _by(rows, "party")
    assert party["ev"]["lat_p90"] < party["psv"]["lat_p90"]
    assert party["ev"]["lat_p50"] < party["psv"]["lat_p50"]
