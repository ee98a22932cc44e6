"""Scenario-synthesis engine: spec round-trips, replay determinism,
fleet/backend byte-identity and the adversarial hunt contract."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import ExperimentSetup, run_workload
from repro.fleet import FleetConfig, FleetEngine
from repro.metrics.congruence import temporary_incongruence_events
from repro.sim.random import RandomStreams
from repro.workloads.fleet_mix import (FLEET_SCENARIOS, build_fleet_workload,
                                       scenario_for_home)
from repro.workloads.synth import (HUNT_MODELS, SynthSpec, compile_spec,
                                   corpus_to_json, hunt, hunt_corpus,
                                   is_synth_scenario, mutate_spec,
                                   random_spec)

# A compact strategy over the interesting knobs; the rest stay at their
# defaults so generated workloads stay small enough for a backend grid.
spec_strategy = st.builds(
    SynthSpec,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    devices=st.integers(min_value=3, max_value=8),
    routines=st.integers(min_value=4, max_value=12),
    fanout_mean=st.floats(min_value=1.5, max_value=4.0),
    contention_alpha=st.floats(min_value=0.0, max_value=2.0),
    trigger_open_pct=st.sampled_from([50.0, 100.0]),
    streams=st.integers(min_value=1, max_value=3),
)


class TestSynthSpec:
    def test_json_round_trip(self):
        spec = SynthSpec(seed=7, devices=5, routines=9,
                         contention_alpha=1.3, long_pct=25.0)
        assert SynthSpec.from_json(spec.to_json()) == spec

    def test_encode_decode_round_trip_defaults_elided(self):
        spec = SynthSpec(seed=5, devices=5, routines=8)
        name = spec.encode()
        assert name == "synth:seed=5;devices=5;routines=8"
        assert is_synth_scenario(name)
        assert SynthSpec.decode(name) == spec
        # Comma-free by construction: fleet --mix splits on commas.
        assert "," not in SynthSpec(
            seed=1, device_pool=("light", "ac")).encode()

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            SynthSpec.decode("synth:devices=not-a-number")
        with pytest.raises(ValueError):
            SynthSpec.decode("synth:unknown_knob=3")
        with pytest.raises(ValueError):
            SynthSpec.decode("morning")

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(devices=0)
        with pytest.raises(ValueError):
            SynthSpec(long_pct=120.0)
        with pytest.raises(ValueError):
            SynthSpec(device_pool=("warp-drive",))

    @given(spec=spec_strategy)
    def test_compile_is_pure(self, spec):
        """Same spec ⇒ same workload, and the spec survives in meta."""
        first = compile_spec(spec)
        second = compile_spec(spec)
        assert first.devices == second.devices
        assert first.meta["synth_spec"] == spec.to_dict()
        assert [(r.name, at) for r, at in first.arrivals] == \
            [(r.name, at) for r, at in second.arrivals]
        assert first.routine_count == spec.routines
        for routine in (r for r, _at in first.arrivals):
            # Contiguity: no device appears twice in one routine.
            ids = [c.device_id for c in routine.commands]
            assert len(set(ids)) == len(ids)


def _report_json(scenario_name, seed=0, model="ev"):
    workload = build_fleet_workload(scenario_name, seed=seed)
    setup = ExperimentSetup(model=model, seed=seed, check_final=False)
    result, report, _controller = run_workload(workload, setup)
    row = dict(report.row())
    row["end_state"] = {str(k): v for k, v in
                       sorted(result.end_state.items())}
    return json.dumps(row, sort_keys=True, default=repr)


class TestReplayDeterminism:
    @given(spec=spec_strategy)
    @settings(max_examples=5)
    def test_scenario_replays_byte_identically_from_spec(self, spec):
        """encode → decode → compile → run reproduces the original."""
        name = spec.encode()
        assert _report_json(name, seed=spec.seed) == \
            _report_json(SynthSpec.decode(name).encode(), seed=spec.seed)
        # And a second process-independent compile of the same object.
        direct = compile_spec(spec)
        via_name = compile_spec(SynthSpec.decode(name))
        assert [(r.name, at) for r, at in direct.arrivals] == \
            [(r.name, at) for r, at in via_name.arrivals]

    @given(spec=spec_strategy)
    @settings(max_examples=3)
    def test_fleet_backend_grid_byte_identical(self, spec):
        """A synthesized fleet is a pure function of its config: the
        serial and process backends — across chunk sizes —
        produce byte-identical JSON."""
        name = spec.encode()
        base = FleetConfig(homes=4, seed=17, scenario=name,
                           check_final=False)
        reference = FleetEngine(base).run().to_json(per_home=True)
        for backend, chunk in (("process", 1), ("process", 2),
                               ("process", 0)):
            config = dataclasses.replace(base, backend=backend,
                                         workers=2, chunk=chunk)
            assert FleetEngine(config).run().to_json(per_home=True) \
                == reference, (backend, chunk)


class TestFleetIntegration:
    def test_scenario_for_home_accepts_synth_names(self):
        name = SynthSpec(seed=3, devices=4, routines=6).encode()
        assert scenario_for_home(0, scenario=name) == name
        assert scenario_for_home(1, scenario="mix",
                                 mix=("cooling", name)) == name

    def test_scenario_for_home_rejects_bad_synth_names(self):
        with pytest.raises(ValueError):
            scenario_for_home(0, scenario="synth:devices=0")
        with pytest.raises(ValueError, match="synth"):
            scenario_for_home(0, scenario="no-such-scenario")

    def test_build_fleet_workload_routes_synth(self):
        spec = SynthSpec(seed=3, devices=4, routines=6)
        workload = build_fleet_workload(spec.encode(), seed=99)
        assert workload.meta["synth_spec"] == spec.to_dict()
        assert workload.meta["seed"] == 99      # per-home split seed


class TestHunt:
    def test_hunt_is_deterministic(self):
        kwargs = dict(models=("wv",), objective="incongruence",
                      seed=3, budget=6)
        first = corpus_to_json(hunt_corpus(**kwargs))
        second = corpus_to_json(hunt_corpus(**kwargs))
        assert first == second

    def test_mutation_stays_in_bounds(self):
        rng = RandomStreams(seed=4).stream("mutate")
        spec = random_spec(rng, seed=11)
        for _ in range(50):
            spec = mutate_spec(spec, rng)
            # __post_init__ validation would have raised on any
            # out-of-range knob; spot-check the coupled pair too.
            assert spec.fanout_max >= 1
            assert spec.devices >= 1

    def test_hunted_wv_beats_every_hand_written_scenario(self):
        """Acceptance bar: the adversarial search finds more WV
        incongruence pressure than any hand-written scenario."""
        hand_written = {}
        for scenario in sorted(FLEET_SCENARIOS):
            workload = build_fleet_workload(scenario, seed=0)
            setup = ExperimentSetup(model="wv", seed=0,
                                    check_final=False)
            result, _report, _controller = run_workload(workload, setup)
            hand_written[scenario] = \
                temporary_incongruence_events(result)

        outcome = hunt("wv", objective="incongruence", seed=0,
                       budget=25)
        assert outcome["oracle_violations"] == 0
        best = outcome["best"]["score"]
        assert best > max(hand_written.values()), hand_written

    def test_corpus_covers_all_models_and_is_oracle_clean(self):
        corpus = hunt_corpus(HUNT_MODELS, objective="incongruence",
                             seed=1, budget=3)
        assert sorted(corpus["models"]) == sorted(HUNT_MODELS)
        assert corpus["oracle_violations"] == 0
        for model in HUNT_MODELS:
            entry = corpus["models"][model]
            assert is_synth_scenario(entry["best"]["scenario"])
            # Every best spec replays: decode must succeed.
            SynthSpec.decode(entry["best"]["scenario"])
