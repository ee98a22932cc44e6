"""Fleet engine: determinism, isolation, worker sizing and N=1 equivalence."""

import json

import pytest

from repro.fleet import (FleetConfig, FleetEngine, HomeSpec, SeedSplitter,
                         home_seed, run_fleet, run_home)
from repro.hub.safehome import SafeHome
from repro.metrics.fleet import aggregate_homes
from repro.sim.random import derive_seed, mix64
from repro.workloads.fleet_mix import (DEFAULT_MIX, build_fleet_workload,
                                       scenario_for_home)


# -- seed splitting ------------------------------------------------------------


def test_mix64_is_pure_and_spreads():
    assert mix64(1) == mix64(1)
    outputs = {mix64(i) for i in range(1000)}
    assert len(outputs) == 1000  # no collisions on small consecutive keys


def test_derive_seed_stable_for_str_and_int():
    assert derive_seed(42, "home-3") == derive_seed(42, "home-3")
    assert derive_seed(42, 3) == derive_seed(42, 3)
    assert derive_seed(42, "home-3") != derive_seed(43, "home-3")


def test_home_seeds_pure_and_distinct():
    splitter = SeedSplitter(master_seed=42)
    seeds = [splitter.for_home(i) for i in range(500)]
    assert seeds == [home_seed(42, i) for i in range(500)]
    assert len(set(seeds)) == 500
    # Adjacent homes are not linearly related (SplitMix64, not offsets).
    deltas = {b - a for a, b in zip(seeds, seeds[1:])}
    assert len(deltas) > 450


# -- worker sizing ------------------------------------------------------------


def test_workers_auto_sized_from_affinity_mask_not_host_cpus(monkeypatch):
    import os

    config = FleetConfig(homes=1000, workers=0)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 7},
                        raising=False)
    assert config.effective_workers() == 2
    # Platforms without an affinity mask fall back to the host count.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert config.effective_workers() == 64


# -- scenario mix --------------------------------------------------------------


def test_scenario_mix_cycles_by_home_id():
    names = [scenario_for_home(i) for i in range(6)]
    assert names == list(DEFAULT_MIX) * 2
    assert scenario_for_home(5, "cooling") == "cooling"
    with pytest.raises(ValueError):
        scenario_for_home(0, "nope")
    with pytest.raises(ValueError):
        scenario_for_home(0, "mix", mix=("morning", "nope"))
    with pytest.raises(ValueError):
        build_fleet_workload("nope", seed=0)


def test_fleet_workloads_build_and_are_seed_deterministic():
    for name in ("morning", "factory-line", "cooling", "cooling-faulty"):
        one = build_fleet_workload(name, seed=5)
        two = build_fleet_workload(name, seed=5)
        assert one.device_count() == two.device_count()
        assert [r.name for r, _t in one.arrivals] == \
            [r.name for r, _t in two.arrivals]
        assert [t for _r, t in one.arrivals] == [t for _r, t in two.arrivals]
    faulty = build_fleet_workload("cooling-faulty", seed=5)
    assert faulty.failure_plans


# -- the determinism contract --------------------------------------------------


def test_same_seed_gives_byte_identical_aggregate_json():
    one = run_fleet(6, seed=42)
    two = run_fleet(6, seed=42)
    assert one.to_json(per_home=True) == two.to_json(per_home=True)


def test_different_seeds_differ():
    one = run_fleet(4, seed=1, scenario="cooling")
    two = run_fleet(4, seed=2, scenario="cooling")
    assert one.to_json() != two.to_json()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_backends_match_serial_bytes(backend):
    serial = run_fleet(6, seed=11)
    pooled = run_fleet(6, seed=11, backend=backend, workers=3)
    assert pooled.to_json(per_home=True) == serial.to_json(per_home=True)


def test_worker_count_does_not_change_output():
    one = run_fleet(5, seed=3, scenario="cooling", workers=1)
    five = run_fleet(5, seed=3, scenario="cooling", workers=5,
                     backend="thread")
    assert one.to_json(per_home=True) == five.to_json(per_home=True)


# -- N=1 fleet ≡ single SafeHome run ------------------------------------------


def test_fleet_of_one_equals_standalone_safehome_run():
    result = run_fleet(1, seed=42, scenario="morning")
    row = result.rows[0]

    seed = home_seed(42, 0)
    home = SafeHome(visibility="ev", scheduler="timeline", seed=seed)
    home.load_workload(build_fleet_workload("morning", seed=seed))
    run_result = home.run(max_events=5_000_000)
    report = home.report(check_final=True, exhaustive_limit=7)

    assert row["seed"] == seed
    assert row["routines"] == report.routines
    assert row["committed"] == report.committed
    assert row["aborted"] == report.aborted
    assert row["latencies"] == run_result.latencies()
    assert row["lat_p50"] == report.latency["p50"]
    assert row["final_congruent"] == report.final_congruent
    assert row["makespan"] == run_result.makespan


# -- shard-failure isolation ---------------------------------------------------


def test_one_homes_failure_never_perturbs_its_neighbours():
    healthy = run_fleet(5, seed=9, scenario="cooling")
    faulty_spec = HomeSpec(home_id=2, scenario="cooling-faulty",
                           seed=home_seed(9, 2))
    mixed_rows = [run_home(spec) if spec.home_id != 2
                  else run_home(faulty_spec)
                  for spec in FleetEngine(
                      FleetConfig(homes=5, seed=9,
                                  scenario="cooling")).specs()]

    faulty_row = mixed_rows[2]
    assert faulty_row["aborted"] > 0 or \
        faulty_row["makespan"] != healthy.rows[2]["makespan"]
    for home_id in (0, 1, 3, 4):
        assert mixed_rows[home_id] == healthy.rows[home_id]


# -- aggregation ---------------------------------------------------------------


def test_aggregate_percentiles_ordered_and_rates_bounded():
    aggregate = run_fleet(6, seed=4).aggregate
    latency = aggregate["latency"]
    assert latency["p50"] <= latency["p95"] <= latency["p99"] \
        <= latency["max"]
    assert 0.0 <= aggregate["abort_rate"] <= 1.0
    assert aggregate["homes"] == 6
    assert aggregate["routines"] == aggregate["committed"] \
        + aggregate["aborted"]
    assert aggregate["homes_final_checked"] == 6
    assert aggregate["final_incongruence"] == 0.0


def test_aggregate_is_insensitive_to_row_order():
    rows = run_fleet(4, seed=8, scenario="cooling").rows
    assert aggregate_homes(rows) == aggregate_homes(list(reversed(rows)))


def test_aggregate_handles_unchecked_final_state():
    result = run_fleet(3, seed=2, scenario="cooling", check_final=False)
    assert result.aggregate["final_incongruence"] is None
    assert result.aggregate["homes_final_checked"] == 0


# -- engine validation ---------------------------------------------------------


def test_engine_rejects_bad_config():
    with pytest.raises(ValueError):
        FleetEngine(FleetConfig(homes=0))
    with pytest.raises(ValueError):
        FleetEngine(FleetConfig(homes=1, backend="quantum"))
    with pytest.raises(ValueError):
        FleetEngine(FleetConfig(homes=1, scenario="nope"))


# -- CLI -----------------------------------------------------------------------


def test_cli_fleet_deterministic_json(tmp_path, capsys):
    from repro.cli import main

    path_one = tmp_path / "one.json"
    path_two = tmp_path / "two.json"
    argv = ["fleet", "--homes", "4", "--seed", "42",
            "--scenario", "cooling", "--per-home"]
    assert main(argv + ["--json", str(path_one)]) == 0
    out_one = capsys.readouterr().out
    assert main(argv + ["--json", str(path_two)]) == 0
    out_two = capsys.readouterr().out

    assert out_one == out_two
    assert path_one.read_bytes() == path_two.read_bytes()
    assert path_one.read_text() == out_one
    payload = json.loads(out_one)
    assert payload["aggregate"]["homes"] == 4
    assert len(payload["homes"]) == 4
    assert "latencies" not in payload["homes"][0]


def test_cli_fleet_rejects_unknown_scenario(capsys):
    from repro.cli import main

    assert main(["fleet", "--homes", "2", "--scenario", "nope"]) == 2
    assert "unknown" in capsys.readouterr().err


# -- chunked streaming execution (PR 5) ----------------------------------------


class TestChunkedShardingDeterminism:
    """Default (exact) fleet JSON bytes are invariant across the whole
    backend × workers × chunk grid."""

    HOMES = 8

    def reference(self):
        return run_fleet(self.HOMES, seed=13,
                         scenario="cooling").to_json(per_home=True)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk", [1, 7, HOMES])
    def test_grid_matches_reference_bytes(self, backend, workers, chunk):
        result = run_fleet(self.HOMES, seed=13, scenario="cooling",
                           backend=backend, workers=workers, chunk=chunk)
        assert result.to_json(per_home=True) == self.reference()

    def test_chunk_plan_covers_all_homes_contiguously(self):
        from repro.fleet import plan_chunks

        tasks = [(i, "cooling", i * 11) for i in range(10)]
        chunks = plan_chunks(tasks, 3)
        assert [len(chunk) for chunk in chunks] == [3, 3, 3, 1]
        assert [task for chunk in chunks for task in chunk] == tasks
        with pytest.raises(ValueError):
            plan_chunks(tasks, 0)

    def test_default_chunk_is_homes_over_workers(self):
        from repro.fleet import FleetConfig, default_chunk_size

        assert default_chunk_size(100, 4) == 25
        assert default_chunk_size(10, 3) == 4
        assert default_chunk_size(1, 8) == 1
        config = FleetConfig(homes=100, workers=4, chunk=0)
        assert config.effective_chunk() == 25
        assert FleetConfig(homes=100, workers=4,
                           chunk=7).effective_chunk() == 7

    def test_engine_rejects_bad_aggregate_mode(self):
        with pytest.raises(ValueError):
            FleetEngine(FleetConfig(homes=1, aggregate="approximate"))


class TestStreamingAggregation:
    """Mergeable accumulator mode: pre-reduced chunks, merged partials."""

    def test_stream_counts_match_exact_and_percentiles_are_close(self):
        exact = run_fleet(6, seed=4)
        stream = run_fleet(6, seed=4, aggregate="stream", chunk=2)
        e, s = exact.aggregate, stream.aggregate
        for key in ("homes", "routines", "committed", "aborted",
                    "abort_rate", "homes_final_checked",
                    "final_incongruence", "makespan_max"):
            assert s[key] == e[key], key
        # Means fold partial float sums in chunk order: equal up to
        # addition-order ulps.
        for key in ("temporary_incongruence_mean", "makespan_mean"):
            assert s[key] == pytest.approx(e[key], rel=1e-12), key
        assert s["latency"]["n"] == e["latency"]["n"]
        assert s["latency"]["mean"] == pytest.approx(e["latency"]["mean"])
        assert s["latency"]["max"] == e["latency"]["max"]
        # Histogram percentiles are nearest-rank at 1 ms resolution:
        # within one bin of the exact nearest-rank pooled sample.
        pooled = sorted(sample for row in exact.rows
                        for sample in row["latencies"])
        n = len(pooled)
        for q in (50, 95, 99):
            nearest = pooled[int((n - 1) * q / 100.0)]
            assert abs(s["latency"][f"p{q}"] - nearest) <= 1e-3 + 1e-9

    def test_stream_rows_ship_without_raw_samples(self):
        stream = run_fleet(4, seed=7, scenario="cooling",
                           aggregate="stream")
        assert all("latencies" not in row for row in stream.rows)

    def test_stream_json_deterministic_across_backends_at_fixed_chunk(self):
        kwargs = dict(seed=4, aggregate="stream", chunk=2)
        one = run_fleet(6, **kwargs)
        two = run_fleet(6, backend="thread", workers=3, **kwargs)
        three = run_fleet(6, backend="process", workers=2, **kwargs)
        assert one.to_json() == two.to_json() == three.to_json()
        # The layout knobs are stamped into the payload.
        payload = json.loads(one.to_json())
        assert payload["fleet"]["aggregate"] == "stream"
        assert payload["fleet"]["chunk"] == 2

    def test_accumulator_merge_equals_single_fold(self):
        from repro.metrics.fleet import (FleetAccumulator,
                                         accumulate_rows,
                                         merge_accumulators)

        rows = run_fleet(6, seed=9, scenario="cooling").rows
        whole = accumulate_rows(rows)
        parts = merge_accumulators(
            [accumulate_rows(rows[:2]), accumulate_rows(rows[2:5]),
             accumulate_rows(rows[5:]), None])
        split_agg, whole_agg = parts.aggregate(), whole.aggregate()
        # Histogram counts merge exactly; float sums differ only by
        # addition-order ulps.
        for agg in (split_agg, whole_agg):
            agg["latency"]["mean"] = round(agg["latency"]["mean"], 9)
            agg["makespan_mean"] = round(agg["makespan_mean"], 9)
            agg["temporary_incongruence_mean"] = round(
                agg["temporary_incongruence_mean"], 9)
        assert split_agg == whole_agg
        empty = FleetAccumulator()
        agg = empty.aggregate()
        assert agg["homes"] == 0 and agg["latency"]["n"] == 0
        assert agg["final_incongruence"] is None


class TestHomeFactoryResetEquivalence:
    """reset() + reuse must be byte-equivalent to a fresh SafeHome."""

    @pytest.mark.parametrize("model", ["wv", "gsv", "psv", "ev", "occ"])
    def test_reset_vs_fresh_rows_identical_per_model(self, model):
        from repro.fleet import HomeFactory, HomeSpec, WorkerContext

        context = WorkerContext(model=model)
        factory = HomeFactory(context)
        # Warm the factory on two different homes first so the third
        # row comes from a twice-reset, reused stack.
        for home_id in (0, 1):
            factory.run_task((home_id, "cooling", home_seed(5, home_id)))
        reused_row = factory.run_task((2, "morning", home_seed(5, 2)))

        fresh_row = run_home(HomeSpec(
            home_id=2, scenario="morning", seed=home_seed(5, 2),
            model=model))
        assert reused_row == fresh_row

    def test_reset_vs_fresh_with_durability_and_crashes(self):
        from repro.fleet import HomeFactory, HomeSpec, WorkerContext

        context = WorkerContext(model="ev", crashes=2)
        factory = HomeFactory(context)
        factory.run_task((0, "cooling", home_seed(2, 0)))
        reused_row = factory.run_task((1, "morning", home_seed(2, 1)))
        fresh_row = run_home(HomeSpec(
            home_id=1, scenario="morning", seed=home_seed(2, 1),
            model="ev", crashes=2))
        assert reused_row == fresh_row
        assert reused_row["hub_crashes"] >= 1

    def test_reset_restores_constructor_semantics(self):
        home = SafeHome(visibility="ev", seed=1)
        home.add_device("light", "lamp")
        home.register_routine_spec({
            "routineName": "on",
            "commands": [{"device": "lamp", "action": "ON",
                          "durationSec": 1}]})
        home.invoke("on")
        home.run()
        home.reset(seed=2)
        assert home.sim.now == 0.0
        assert home.sim.events_processed == 0
        assert len(home.registry) == 0
        assert home.streams.seed == 2
        assert home.controller.runs == []
        assert home.durability is None and not home.crashed


class TestServedHomeRecycling:
    """Long-lived homes: late failure plans and tenant-to-tenant reuse.

    A served home's clock keeps running between phases, so failure
    plans can be scripted after their nominal time has passed, and a
    recycled home must carry nothing — timers, armed plans, streams —
    from its previous tenant.
    """

    @staticmethod
    def _home_with_lamp(seed=0):
        home = SafeHome(visibility="ev", seed=seed)
        home.add_device("light", "lamp")
        home.register_routine_spec({
            "routineName": "on",
            "commands": [{"device": "lamp", "action": "ON",
                          "durationSec": 1}]})
        return home

    def test_arm_clamps_past_failure_to_now(self):
        home = self._home_with_lamp()
        home.invoke("on")
        home.run(until=5.0)
        assert home.sim.now == 5.0
        # Scripted "in the past" relative to the advanced clock: the
        # device must be down immediately, not raise SimulationError.
        home.plan_failure("lamp", fail_at=2.0, restart_at=3.0)
        home.invoke("on", at=6.0)
        result = home.run()
        assert result is not None
        device = home.registry.by_name("lamp")
        assert not device.failed  # restart fired too (clamped to now)

    def test_arm_clamp_preserves_fail_before_restart(self):
        home = self._home_with_lamp()
        home.run(until=10.0)
        home.plan_failure("lamp", fail_at=1.0, restart_at=4.0)
        fired = []
        device = home.registry.by_name("lamp")
        original_fail, original_restart = device.fail, device.restart
        # Wrap before arm(): the injector captures the bound methods
        # when it schedules the clamped events.
        device.fail = lambda: (fired.append("fail"), original_fail())[1]
        device.restart = lambda: (fired.append("restart"),
                                  original_restart())[1]
        home.injector.arm()
        home.sim.run()
        assert fired == ["fail", "restart"]
        assert not device.failed

    def test_arm_clamp_is_identity_for_future_plans(self):
        def final_state(clamped_first):
            home = self._home_with_lamp(seed=3)
            if clamped_first:
                home.run(until=0.0)   # arm once with nothing scripted
            home.plan_failure("lamp", fail_at=2.0, restart_at=8.0)
            home.invoke("on", at=1.0)
            home.invoke("on", at=9.0)
            result = home.run()
            return [(run.routine.name, run.status.name,
                     round(run.finish_time, 6)) for run in result.runs]

        assert final_state(False) == final_state(True)

    def test_reset_clears_timers_and_armed_plans_between_tenants(self):
        home = self._home_with_lamp(seed=1)
        home.plan_failure("lamp", fail_at=50.0, restart_at=60.0)
        home.invoke("on")
        home.run(until=2.0)           # failure timers still pending
        assert home.sim.pending_events > 0
        assert home.injector._armed == 1

        home.reset(seed=2)
        # Nothing survives into the next tenant's occupancy: no stale
        # timers, no plans, no armed count, clock back at zero.
        assert home.sim.pending_events == 0
        assert home.sim.next_event_time() is None
        assert home.injector.plans == []
        assert home.injector._armed == 0
        assert home.sim.now == 0.0

        # And the recycled home behaves exactly like a fresh one.
        home.add_device("light", "lamp")
        home.register_routine_spec({
            "routineName": "on",
            "commands": [{"device": "lamp", "action": "ON",
                          "durationSec": 1}]})
        home.invoke("on")
        recycled = home.run()

        fresh = self._home_with_lamp(seed=2)
        fresh.invoke("on")
        baseline = fresh.run()
        assert [(r.routine.name, r.status.name, r.finish_time)
                for r in recycled.runs] == \
            [(r.routine.name, r.status.name, r.finish_time)
             for r in baseline.runs]
        # The old tenant's failure never fires on the recycled home.
        home.run(until=100.0)
        assert not home.registry.by_name("lamp").failed
