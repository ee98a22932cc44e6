"""Fig 15d — Timeline (Algorithm 1) placement cost.

Paper: on a Raspberry Pi 3B+ with 15 devices and 30 routines, inserting
a large 10-command routine takes ~1 ms; typical 5-command routines are
far cheaper.  This is the one genuinely CPU-bound benchmark, so it also
exercises pytest-benchmark's statistics on the placement path itself.

Shape assertions over the registered ``scheduler_insertion`` smoke
benchmark (per-insertion milliseconds live in its ``timing`` payload —
they are wall-clock, not virtual time).
"""

from benchmarks.conftest import run_once
from repro.bench import call
from repro.experiments.report import print_table


def test_fig15d_insertion_time(benchmark):
    outcome = run_once(benchmark, call, "scheduler_insertion")
    rows = outcome["timing"]["rows"]
    print_table("Fig 15d: Algorithm 1 insertion time vs routine size",
                rows)
    for row in rows:
        # Generous bound for arbitrary CI hardware; the paper's Pi does
        # 10 commands in ~1 ms.
        assert row["mean_insert_ms"] < 25.0


def test_fig15d_single_placement_microbench(benchmark):
    """Median cost of one Algorithm 1 placement on a populated table."""
    from tests.conftest import Home, routine

    home = Home(model="ev", scheduler="timeline", n_devices=15)
    # Populate the lineage table with 30 in-flight routines.
    for index in range(30):
        steps = [((index + j) % 15, "ON", 60.0) for j in range(3)]
        home.submit(routine(f"bg{index}", steps), when=0.0)
    home.sim.run(until=1.0)

    big = routine("big", [(d, "ON", 5.0) for d in range(10)])
    scheduler = home.controller.scheduler

    def place_once():
        return scheduler._place(
            home.controller.submit(big, when=home.sim.now))

    benchmark(place_once)
