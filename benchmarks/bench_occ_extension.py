"""Extension benchmark: optimistic vs pessimistic concurrency control.

§4.1 (footnote 3) justifies SafeHome's pessimistic locking — "abort and
undo of routines are disruptive to the human experience" — and defers
optimistic approaches to future work for conflict-free scenarios.  This
sweep quantifies the trade-off across the conflict spectrum (Zipf α
controls contention): OCC's raw latency is competitive (it never waits
for locks), but it pays a large and rising abort/undo tax — dozens of
physically-executed commands rolled back per run, which is exactly the
"disruptive to the human experience" cost the paper cites — while EV
commits everything with zero undo.  The design choice is validated.

Shape assertions over the registered ``occ_extension`` sweep.
"""

from repro.bench import call
from repro.experiments.report import print_table


def test_occ_vs_ev_contention_sweep():
    # Three trials per cell (the registered size) leave OCC's undo
    # trend inside the noise; six show it.
    rows = call("occ_extension", trials=6)["metrics"]["rows"]
    print_table("Extension: OCC vs EV across contention (Zipf alpha)",
                rows)

    def cell(model, alpha, key):
        return next(row[key] for row in rows
                    if row["model"] == model and row["alpha"] == alpha)

    # Low contention: OCC is competitive with EV.
    assert cell("occ", 0.0, "lat_p50") <= cell("ev", 0.0, "lat_p50") * 1.3
    # EV never performs disruptive undo; OCC's undo grows with
    # contention — the paper's reason for pessimistic locking.
    assert cell("ev", 1.5, "undo_commands_per_run") == 0
    assert cell("occ", 1.5, "abort_rate") > 0
    assert cell("occ", 1.5, "undo_commands_per_run") >= \
        cell("occ", 0.0, "undo_commands_per_run")
