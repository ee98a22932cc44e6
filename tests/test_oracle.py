"""The congruence oracle against ground truth: every hand-written
scenario must come back clean under its own model's invariants, and a
deliberately broken run must not."""

import dataclasses

import pytest

from repro.experiments.runner import ExperimentSetup, run_workload
from repro.metrics.oracle import MODEL_INVARIANTS, check_run
from repro.workloads.chaos import chaos_workload
from repro.workloads.fleet_mix import FLEET_SCENARIOS, build_fleet_workload
from repro.workloads.synth import workload_initial_state

MODELS = ("wv", "gsv", "psv", "ev", "occ")

# The eight hand-written scenarios (Table 2 / §7): the fleet registry
# entries (factory-line, the per-home shard, stands in for the full
# 50-stage factory — see test_oracle_accepts_occ_rollback below),
# plus the hub-crash chaos evening scene and the §7.3 lights race.
HAND_WRITTEN = tuple(
    name for name in sorted(FLEET_SCENARIOS) if name != "factory"
) + ("chaos", "lights")


def _workload(name, seed=0):
    if name == "chaos":
        return chaos_workload(seed=seed)
    if name == "lights":
        from repro.workloads.lights import lights_workload
        return lights_workload(12, 0.4)
    return build_fleet_workload(name, seed=seed)


def _run(name, model, seed=0):
    workload = _workload(name, seed=seed)
    initial = workload_initial_state(workload)
    setup = ExperimentSetup(model=model, seed=seed, check_final=False)
    result, _report, _controller = run_workload(workload, setup)
    return result, initial


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scenario", HAND_WRITTEN)
def test_oracle_accepts_hand_written_scenarios(scenario, model):
    result, initial = _run(scenario, model)
    report = check_run(result, initial)
    assert report.ok, (scenario, model,
                       [v.to_dict() for v in report.violations])
    assert report.model == model
    # Model-specific invariants were actually exercised, not skipped.
    for invariant in MODEL_INVARIANTS[model]:
        assert invariant in report.checked


def test_oracle_flags_surviving_aborted_write():
    """A final state decided by an aborted routine's write — one that
    neither a rollback nor a committed writer can explain — is a bug."""
    result, initial = _run("cooling-faulty", "ev")
    aborted_id = result.aborted[0].routine_id
    device_id = next(iter(result.end_state))
    log = list(result.device_write_logs[device_id])
    log.append((result.makespan + 1.0, "EVIL", aborted_id))
    tampered = dataclasses.replace(
        result,
        device_write_logs={**result.device_write_logs, device_id: log},
        end_state={**result.end_state, device_id: "EVIL"})
    report = check_run(tampered, initial)
    assert not report.ok
    assert any(v.invariant == "abort-erasure"
               and v.routine_id == aborted_id
               for v in report.violations)


def test_oracle_accepts_occ_rollback_on_full_factory():
    """A bug the oracle caught on a real workload: under the full
    50-stage factory's retry storms, an OCC rollback on a device no
    routine had committed restored the aborted routine's prior state —
    another routine's *uncommitted* write (R284 on device 55 restored
    R244's ``PICK``, and R244 later aborted), so the end state was not
    committed-serializable.  The initial state now counts as committed."""
    result, initial = _run("factory", "occ")
    report = check_run(result, initial)
    assert report.ok, [v.to_dict() for v in report.violations]


def test_oracle_flags_wv_overlap_under_gsv_invariants():
    """WV runs overlap freely; judged by GSV's isolation invariant the
    oracle must cry foul — proof it can detect real violations."""
    result, initial = _run("morning", "wv")
    report = check_run(result, initial, model="gsv")
    assert not report.ok
    assert any(v.invariant == "gsv-isolation"
               for v in report.violations)


def test_oracle_checked_lists_universal_plus_model():
    result, initial = _run("fanout", "gsv")
    report = check_run(result, initial)
    assert "terminal-status" in report.checked
    assert "gsv-serializable" in report.checked
    payload = report.to_dict()
    assert payload["ok"] is True
    assert payload["violations"] == []
