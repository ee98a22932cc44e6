"""Fleet control plane: plans, cohorts, supervision, canaries, ops log.

The design contract under test: a ``repro-fleet-plan/1`` file is the
*only* input, and two applications of the same plan are byte-identical
— ops log and result JSON — whatever the fleet did in between (crashes,
restarts, migrations, rollbacks).
"""

import json
import pickle

import pytest

from repro.errors import PlanError, RecoveryError
from repro.fleet import FleetConfig, HomeSpec
from repro.fleet.control import (CanarySpec, Cohort, ControlLoop,
                                 ControlProgram, FleetPlan, HomeDirective,
                                 MigrationStep, OpsLog, SupervisionPolicy,
                                 apply_plan, assign_cohorts, load_plan)

BASE_FLEET = {"homes": 8, "seed": 42, "model": "wv", "scenario": "mix"}


def _plan(**kwargs):
    defaults = dict(
        fleet=dict(BASE_FLEET),
        cohorts=[Cohort.from_dict({"name": "migrators", "fraction": 0.25,
                                   "overrides": {"crashes": 2}})],
        migrations=[MigrationStep(cohort="migrators", to_model="ev",
                                  at_s=40.0)])
    defaults.update(kwargs)
    return FleetPlan(**defaults)


# -- plan schema and validation ------------------------------------------------


def test_plan_round_trips_through_json():
    plan = _plan(canary=CanarySpec(cohort="migrators"))
    again = FleetPlan.from_json(plan.to_json())
    assert again.to_dict() == plan.to_dict()
    assert again.version == "repro-fleet-plan/1"


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.update(version="repro-fleet-plan/2"), "version"),
    (lambda d: d["fleet"].update(homez=3), "unknown"),
    (lambda d: d["fleet"].update(transport="carrier-pigeon"), "transport"),
    (lambda d: d["cohorts"].append(
        {"name": "migrators", "fraction": 0.1}), "duplicate"),
    (lambda d: d["cohorts"].append(
        {"name": "stable", "fraction": 0.1}), "reserved"),
    (lambda d: d["cohorts"].append(
        {"name": "rest", "fraction": 0.9}), "fraction"),
    (lambda d: d["migrations"].append(
        {"cohort": "ghosts", "to_model": "ev", "at_s": 1.0}), "ghosts"),
    (lambda d: d["migrations"].append(
        {"cohort": "migrators", "to_model": "occ", "at_s": 9.0}),
     "one migration"),
    (lambda d: d.update(canary={"cohort": "ghosts"}), "ghosts"),
    (lambda d: d.update(supervision={"max_restarts": 0}), "max_restarts"),
    (lambda d: d.update(supervision={"restartz": 1}), "unknown"),
])
def test_invalid_plans_are_rejected(mutate, match):
    data = _plan().to_dict()
    mutate(data)
    with pytest.raises(PlanError, match=match):
        FleetPlan.from_dict(data)


def test_migration_to_unknown_model_rejected():
    with pytest.raises((PlanError, ValueError)):
        _plan(migrations=[MigrationStep(cohort="migrators",
                                        to_model="psychic", at_s=1.0)])


def test_load_plan_from_file(tmp_path):
    path = tmp_path / "plan.json"
    _plan().save(str(path))
    assert load_plan(str(path)).to_dict() == _plan().to_dict()


# -- config round-trips --------------------------------------------------------


def test_fleet_config_plan_round_trip():
    config = FleetConfig(homes=20, seed=7, model="gsv", crashes=1)
    assert FleetConfig.from_plan(config.to_plan()) == config


def test_fleet_config_from_plan_rejects_unknown_keys():
    with pytest.raises(PlanError, match="unknown"):
        FleetConfig.from_plan({"homes": 5, "sheduler": "fcfs"})


def test_fleet_config_overrides_beat_plan_values():
    config = FleetConfig.from_plan({"homes": 5, "model": "wv"},
                                   homes=9, scheduler="fcfs")
    assert (config.homes, config.model, config.scheduler) == \
        (9, "wv", "fcfs")


def test_home_spec_plan_round_trip():
    spec = HomeSpec(home_id=3, scenario="cooling", seed=99, model="ev")
    assert HomeSpec.from_plan(spec.to_plan()) == spec
    with pytest.raises(PlanError):
        HomeSpec.from_plan({"home_id": 1, "scenario": "x", "seed": 0,
                            "warp_drive": True})


# -- cohort assignment ---------------------------------------------------------


def test_cohort_assignment_deterministic_disjoint_and_sized():
    plan = _plan(migrations=[], cohorts=[
        Cohort.from_dict({"name": "a", "fraction": 0.25}),
        Cohort.from_dict({"name": "b", "fraction": 0.25})])
    first = assign_cohorts(plan, homes=20, seed=42)
    assert first == assign_cohorts(plan, homes=20, seed=42)
    assert sorted(first) == list(range(20))
    by_cohort = {}
    for home, cohort in first.items():
        by_cohort.setdefault(cohort, set()).add(home)
    assert len(by_cohort["a"]) == 5
    assert len(by_cohort["b"]) == 5
    assert len(by_cohort["stable"]) == 10
    assert assign_cohorts(plan, homes=20, seed=43) != first


def test_cohort_assignment_is_order_independent():
    cohorts = [Cohort.from_dict({"name": "a", "fraction": 0.25}),
               Cohort.from_dict({"name": "b", "fraction": 0.25})]
    forward = assign_cohorts(_plan(migrations=[], cohorts=cohorts),
                             homes=16, seed=1)
    backward = assign_cohorts(_plan(migrations=[], cohorts=cohorts[::-1]),
                              homes=16, seed=1)
    assert forward == backward


# -- supervision policy --------------------------------------------------------


def test_backoff_grows_geometrically_and_caps():
    policy = SupervisionPolicy(backoff_base_s=0.5, backoff_factor=2.0,
                               backoff_cap_s=3.0)
    assert [policy.backoff_s(n) for n in (1, 2, 3, 4, 5)] == \
        [0.5, 1.0, 2.0, 3.0, 3.0]


def test_control_program_pickles_for_process_workers():
    program = ControlProgram(
        directives=(HomeDirective(home_id=0, cohort="stable", model="ev",
                                  scheduler="timeline", execution="serial",
                                  crashes=0, recovery="replay"),),
        supervision=SupervisionPolicy())
    clone = pickle.loads(pickle.dumps(program))
    assert clone.directive_for(0).model == "ev"
    assert clone.directive_for(99) is None


# -- ops log -------------------------------------------------------------------


def test_opslog_sequences_centrally_and_round_trips(tmp_path):
    log = OpsLog()
    log.record("plan-loaded", homes=4)
    log.extend([{"op": "crash", "home": 2, "seq": 999}])
    assert [entry["seq"] for entry in log] == [0, 1]
    assert log.counts() == {"plan-loaded": 1, "crash": 1}
    path = tmp_path / "ops.jsonl"
    log.save(str(path))
    assert OpsLog.load(str(path)).to_jsonl() == log.to_jsonl()
    for line in log.to_jsonl().splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)


# -- end-to-end: apply, supervision, canary ------------------------------------


def test_apply_plan_is_byte_deterministic_and_oracle_clean():
    plan = _plan(canary=CanarySpec(cohort="migrators"))
    first = ControlLoop(plan).run()
    second = ControlLoop(plan).run()
    assert first.ops.to_jsonl() == second.ops.to_jsonl()
    assert first.to_json(per_home=True) == second.to_json(per_home=True)
    assert first.ok
    assert not first.rolled_back
    # Every migrator cohort member migrated and survived its crashes.
    migrators = [row for row in first.rows
                 if row["cohort"] == "migrators"]
    assert migrators
    assert all(row["migrated"] == "ev" for row in migrators)
    assert all(row["model"] == "ev" for row in migrators)
    assert sum(row["hub_crashes"] for row in migrators) > 0
    assert sum(row["restarts"] for row in migrators) > 0
    # Supervision ops journaled with the policy's virtual backoff.
    restarts = [e for e in first.ops if e["op"] == "restart"]
    assert restarts
    assert all(e["backoff_s"] ==
               plan.supervision.backoff_s(e["attempt"])
               for e in restarts)
    assert all(e["healthy"] for e in first.ops if e["op"] == "probe")


def test_canary_rollback_is_deterministic_and_restores_stable():
    # max_p95_ratio=0 regresses any canary with nonzero latency, so the
    # rollback path runs deterministically every time.
    plan = _plan(
        cohorts=[Cohort.from_dict({"name": "canary", "fraction": 0.25,
                                   "overrides": {"model": "gsv"}})],
        migrations=[],
        canary=CanarySpec(cohort="canary", max_p95_ratio=0.0))
    first = ControlLoop(plan).run()
    second = ControlLoop(plan).run()
    assert first.ops.to_jsonl() == second.ops.to_jsonl()
    assert first.to_json(per_home=True) == second.to_json(per_home=True)
    assert first.canary["regressed"]
    assert first.rolled_back
    # Post-rollback, the canary homes run the *stable* settings.
    canary_rows = [row for row in first.rows
                   if row["cohort"] == "canary"]
    assert canary_rows
    assert all(row["model"] == BASE_FLEET["model"] for row in canary_rows)
    phases = [e["phase"] for e in first.ops
              if e["op"] == "pool-spawned"]
    assert phases == ["fleet", "rollback"]


def test_rollback_respawn_reclamps_worker_count():
    """Regression: the rollback spawn must re-query the pool size for
    its own (smaller) chunk plan, not reuse the fleet-wide clamp."""
    plan = _plan(
        fleet=dict(BASE_FLEET, homes=12, workers=6, chunk=1),
        cohorts=[Cohort.from_dict({"name": "canary", "fraction": 0.25})],
        migrations=[],
        canary=CanarySpec(cohort="canary", max_p95_ratio=0.0))
    result = ControlLoop(plan).run()
    assert result.rolled_back
    spawns = {e["phase"]: e for e in result.ops
              if e["op"] == "pool-spawned"}
    assert spawns["fleet"]["workers"] == 6
    assert spawns["rollback"]["homes"] == 3
    assert spawns["rollback"]["workers"] == 3   # re-clamped, not 6


def test_restart_storm_abandons_after_budget(monkeypatch):
    """When recovery keeps failing, supervision gives up after
    max_restarts and the home is counted failed, not retried forever."""
    from repro.hub.safehome import SafeHome

    def always_fails(self, mode=None):
        raise RecoveryError("synthetic recovery failure")

    monkeypatch.setattr(SafeHome, "recover", always_fails)
    plan = _plan(
        migrations=[],
        supervision=SupervisionPolicy(max_restarts=2))
    result = ControlLoop(plan).run()
    failed = [row for row in result.rows if row.get("failed")]
    assert failed
    assert not result.ok
    assert all(row["routines"] == 0 for row in failed)
    assert all(row["cohort"] == "migrators" for row in failed)
    abandons = [e for e in result.ops if e["op"] == "abandon"]
    assert len(abandons) == len(failed)
    # Each abandoned home burned exactly its restart budget.
    attempts = [e for e in result.ops if e["op"] == "restart-failed"]
    assert len(attempts) == 2 * len(failed)
    # Failed homes are excluded from cohort aggregates.
    migrators = [row for row in result.rows
                 if row["cohort"] == "migrators"]
    if "migrators" in result.cohorts:
        assert result.cohorts["migrators"]["homes"] == \
            len(migrators) - len(failed)


def test_control_loop_rejects_unsupported_fleet_settings():
    # The removed knobs fail at construction / plan load, naming the
    # removal ...
    with pytest.raises(ValueError, match="shm transport was removed"):
        FleetConfig(homes=2, transport="shm")
    with pytest.raises(PlanError, match="shm transport was removed"):
        ControlLoop(_plan(fleet=dict(BASE_FLEET, transport="shm")))
    with pytest.raises(PlanError, match=r"unknown fleet config keys "
                                        r"\['pin'\]"):
        ControlLoop(_plan(fleet=dict(BASE_FLEET, pin="spread")))
    # ... while plans written before the removal still load.
    loop = ControlLoop(_plan(fleet=dict(BASE_FLEET, transport="pickle")))
    assert FleetConfig.from_plan(loop.config.to_plan()) == loop.config
    with pytest.raises(PlanError, match="aggregate"):
        ControlLoop(_plan(fleet=dict(BASE_FLEET, aggregate="stream")))


def test_apply_plan_convenience_saves_ops_log(tmp_path):
    plan_path = tmp_path / "plan.json"
    _plan().save(str(plan_path))
    ops_path = tmp_path / "ops.jsonl"
    result = apply_plan(str(plan_path), ops_path=str(ops_path))
    assert result.ok
    assert OpsLog.load(str(ops_path)).to_jsonl() == result.ops.to_jsonl()


# -- CLI: --plan / --dump-plan / fleet-ops -------------------------------------


def _cli(*argv):
    from repro.cli import main

    return main(list(argv))


def test_cli_dump_plan_prints_dataclass_defaults(capsys):
    assert _cli("fleet", "--dump-plan") == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped == FleetConfig(homes=10).to_plan()


def test_cli_flags_override_plan_file(tmp_path, capsys):
    path = tmp_path / "plan.json"
    _plan().save(str(path))
    assert _cli("fleet", "--plan", str(path), "--homes", "3",
                "--dump-plan") == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["homes"] == 3            # flag beats plan
    assert dumped["model"] == "wv"         # plan beats default
    assert dumped["seed"] == 42


def test_cli_accepts_bare_fleet_dict_plan(tmp_path, capsys):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps({"homes": 4, "model": "gsv"}))
    assert _cli("fleet", "--plan", str(path), "--dump-plan") == 0
    dumped = json.loads(capsys.readouterr().out)
    assert (dumped["homes"], dumped["model"]) == (4, "gsv")


def test_cli_rejects_bad_plan_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"homes": 4, "warp": 9}))
    assert _cli("fleet", "--plan", str(path), "--dump-plan") == 2
    assert "unknown" in capsys.readouterr().err


def test_cli_fleet_ops_apply_and_status(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    _plan().save(str(plan_path))
    ops_path = tmp_path / "ops.jsonl"
    json_path = tmp_path / "result.json"
    assert _cli("fleet-ops", "apply", "--plan", str(plan_path),
                "--ops-log", str(ops_path), "--json",
                str(json_path)) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["oracle"]["ok"]
    assert payload["migrated"] > 0
    assert json_path.read_text() == out.out
    log = OpsLog.load(str(ops_path))
    assert log.counts()["complete"] == 1
    assert _cli("fleet-ops", "status", "--ops-log", str(ops_path)) == 0
    status = capsys.readouterr()
    assert "complete" in status.out
    assert "oracle_ok=True" in status.err


def test_cli_fleet_ops_apply_rejects_invalid_plan(tmp_path, capsys):
    path = tmp_path / "bad-plan.json"
    data = _plan().to_dict()
    data["cohorts"].append({"name": "stable", "fraction": 0.1})
    path.write_text(json.dumps(data))
    assert _cli("fleet-ops", "apply", "--plan", str(path)) == 2
    assert "reserved" in capsys.readouterr().err


def test_serial_and_thread_backends_agree():
    serial = ControlLoop(_plan()).run()
    threaded = ControlLoop(_plan(
        fleet=dict(BASE_FLEET, backend="thread", workers=3))).run()
    strip = ("backend", "workers")
    serial_fleet = dict(serial.plan.fleet)
    threaded_fleet = dict(threaded.plan.fleet)
    for key in strip:
        serial_fleet.pop(key, None)
        threaded_fleet.pop(key, None)
    assert [{k: v for k, v in row.items()} for row in serial.rows] == \
        [{k: v for k, v in row.items()} for row in threaded.rows]
    assert serial.cohorts == threaded.cohorts
