"""Fig 15d — Timeline (Algorithm 1) placement cost.

Paper: on a Raspberry Pi 3B+ with 15 devices and 30 routines, inserting
a large 10-command routine takes ~1 ms; typical 5-command routines are
far cheaper.

Shape assertions over the registered ``scheduler_insertion`` sweep
(per-insertion milliseconds live in its ``timing`` payload — they are
wall-clock, not virtual time: the sweep's own stopwatch around the
scheduler's placement search).  The perf ledger's
``core.scheduler.place_us_p50``/``_p99`` rows time the placement path
across its workloads.
"""

from repro.bench import call
from repro.experiments.report import print_table


def test_fig15d_insertion_time():
    outcome = call("scheduler_insertion")
    rows = outcome["timing"]["rows"]
    print_table("Fig 15d: Algorithm 1 insertion time vs routine size",
                rows)
    for row in rows:
        # Generous bound for arbitrary CI hardware; the paper's Pi does
        # 10 commands in ~1 ms.
        assert row["mean_insert_ms"] < 25.0


def test_fig15d_single_placement():
    """One Algorithm 1 placement on a populated table: a 10-command
    routine gets one placement per device, on 10 distinct devices."""
    from tests.conftest import Home, routine

    home = Home(model="ev", scheduler="timeline", n_devices=15)
    # Populate the lineage table with 30 in-flight routines.
    for index in range(30):
        steps = [((index + j) % 15, "ON", 60.0) for j in range(3)]
        home.submit(routine(f"bg{index}", steps), when=0.0)
    home.sim.run(until=1.0)

    big = routine("big", [(d, "ON", 5.0) for d in range(10)])
    placements = home.controller.scheduler._place(
        home.controller.submit(big, when=home.sim.now))
    assert len(placements) == 10
    assert {p.request.device_id for p in placements} == set(range(10))
