"""Fig 14 — scheduling policies under EV: FCFS vs JiT vs Timeline.

Paper: at ρ=4 Timeline is 2.36x / 1.33x faster than FCFS / JiT and
reaches 2.0-2.3x their parallelism; the ordering TL <= JiT <= FCFS in
latency holds across concurrency levels.

Shape assertions over the registered ``schedulers`` sweep.
"""

from repro.bench import call
from repro.experiments.report import print_table


def test_fig14_schedulers():
    rows = call("schedulers")["metrics"]["rows"]
    print_table("Fig 14: FCFS vs JiT vs Timeline (EV)", rows)

    def metric(scheduler, rho, key):
        return next(row[key] for row in rows
                    if row["scheduler"] == scheduler
                    and row["rho"] == rho)

    for rho in (4, 8):
        tl = metric("timeline", rho, "lat_p50")
        jit = metric("jit", rho, "lat_p50")
        fcfs = metric("fcfs", rho, "lat_p50")
        # Ordering: TL fastest, FCFS slowest (small tolerance).
        assert tl <= jit * 1.05
        assert tl <= fcfs * 1.05
        assert fcfs >= tl  # TL strictly no worse than FCFS
        # Parallelism: TL >= FCFS.
        assert metric("timeline", rho, "parallelism") >= \
            metric("fcfs", rho, "parallelism") * 0.95

    # The benefit appears with concurrency: at rho=1 they are equal-ish.
    assert abs(metric("timeline", 1, "lat_p50")
               - metric("fcfs", 1, "lat_p50")) < \
        0.25 * metric("fcfs", 1, "lat_p50")
