"""Fig 13 — effect of failures: abort rate and rollback overhead vs the
Must-command percentage (a, c; F=25%) and vs the failed-device
percentage (b, d; M=100%).

Paper shapes: abort rates rise with Must% and with F%; EV's rollback
overhead (intrusion on the user) is the smallest of all models, with
PSV higher (it aborts at the finish point) and GSV/S-GSV plateauing
around 50%/40%.

Shape assertions over the registered ``failures`` sweep.
"""

from repro.bench import call
from repro.experiments.report import print_table
from repro.metrics.stats import mean


def test_fig13_failures():
    data = call("failures")["metrics"]
    print_table("Fig 13a/13c: Must%% sweep (F=25%)", data["must_sweep"])
    print_table("Fig 13b/13d: failed-device%% sweep (M=100%)",
                data["failure_sweep"])

    def series(rows, model, x_key, y_key):
        return [row[y_key] for row in rows if row["model"] == model]

    for model in ("gsv", "sgsv", "psv", "ev"):
        must_aborts = series(data["must_sweep"], model, "must_pct",
                             "abort_rate")
        fail_aborts = series(data["failure_sweep"], model, "failed_pct",
                             "abort_rate")
        # Fig 13a: more must commands -> more aborts.
        assert must_aborts[-1] >= must_aborts[0]
        # Fig 13b: more failures -> more aborts; none without failures.
        assert fail_aborts[0] == 0.0
        assert fail_aborts[-1] > 0.1

    # Fig 13c/13d: EV rolls back the fewest commands (paper conclusion 2).
    def overall_rollback(model):
        rows = [row for row in
                data["must_sweep"] + data["failure_sweep"]
                if row["model"] == model and row["rollback_overhead"] > 0]
        return mean([row["rollback_overhead"] for row in rows])

    assert overall_rollback("ev") <= overall_rollback("psv")
    assert overall_rollback("ev") <= overall_rollback("gsv")
    assert overall_rollback("ev") <= overall_rollback("sgsv")


def test_fig13_ev_abort_exposure_with_recovering_failures():
    """§7.4's headline: "Failures abort more routines in EV because it
    allows high concurrency."  The effect appears when failures recover
    and concurrency is high: EV packs every in-flight routine into the
    outage window, while GSV's serial schedule lets most routines run
    after the device recovers.  With permanent failures EV's rate is
    instead slightly *lower* (it alone serializes failure-after-last-
    touch events past the routine) — both regimes are recorded in
    EXPERIMENTS.md; this bench pins the recovering-failure regime."""
    from repro.experiments.runner import ExperimentSetup, run_workload
    from repro.workloads.micro import MicroParams, generate_microbenchmark

    params = MicroParams(routines=60, concurrency=20, devices=20,
                         failed_device_pct=25.0, restart_after_s=60.0,
                         long_duration_s=120.0, short_duration_s=5.0)
    rates = {}
    for model in ("ev", "gsv"):
        trials = []
        for trial in range(8):
            workload = generate_microbenchmark(params, seed=400 + trial)
            setup = ExperimentSetup(model=model, seed=trial,
                                    check_final=False)
            _result, report, _c = run_workload(workload, setup,
                                               trial=trial)
            trials.append(report.abort_rate)
        rates[model] = mean(trials)
    print_table("Fig 13 (recovering failures, rho=20)",
                [{"model": m, "abort_rate": r} for m, r in rates.items()])
    # EV's exposure matches or exceeds GSV's in this regime.
    assert rates["ev"] >= rates["gsv"] * 0.8
