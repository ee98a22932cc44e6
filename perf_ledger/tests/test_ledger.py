"""Every declared metric is emitted, exact numbers repeat, tracing
restores what it patched, and failures land where the README says."""

import json
import os
import subprocess
import sys

import pytest

from perf_ledger import harness, run, trace
from perf_ledger.workloads import WORKLOADS, FleetMix

ROOT = run.ROOT
SCALE = 0.05
SECONDS = 0.05
EXACT_OWN = ("virt.latency_p50_s", "virt.latency_p95_s", "virt.abort_rate",
             "virt.temp_incongruence", "ops.failed_share", "sim.events",
             "durability.wal_bytes_per_routine",
             "fleet.spool_bytes_per_home")


@pytest.fixture(scope="module")
def declared():
    return run.declared_units(run.load_benchmark())


def measure(name, declared, traced, seed=42):
    return harness.run_workload(
        name, seed, SECONDS, traced, SCALE, harness.time.perf_counter(),
        declared)


@pytest.fixture(scope="module")
def records(declared):
    """One untraced and one traced small run of every workload."""
    return {(name, traced): measure(name, declared, traced)
            for name in WORKLOADS for traced in (False, True)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted(name, records, declared):
    untraced, traced = records[name, False], records[name, True]
    assert untraced["correct"] and traced["correct"]
    assert set(untraced["e2e"]) == set(declared["end_to_end"])
    assert set(traced["layers"]) == set(declared["per_layer"])
    for section, units in (("e2e", declared["end_to_end"]),
                           ("layers", declared["per_layer"])):
        record = untraced if section == "e2e" else traced
        for metric, unit in units.items():
            assert record[section][metric]["unit"] == unit, metric
    for metric in declared["end_to_end"]:
        assert untraced["e2e"][metric]["value"] > 0, metric
    assert untraced["attempted"] >= 1 and untraced["failed"] == 0
    assert len(untraced["passes"]) >= harness.MIN_PASSES


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_sum_to_the_traced_wall(name, records):
    record = records[name, True]
    total = record["attribution"][-1]
    assert total["layer"] == "total"
    assert abs(total["share"] - 1.0) <= 0.05
    assert record["layers"]["trace.overhead_x"]["value"] > 0
    with open(os.path.join(ROOT, record["trace_file"])) as handle:
        spans = json.load(handle)
    assert spans["workload"] == name and spans["aggregates"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_metrics_and_digest_repeat(name, records, declared):
    first = records[name, False]
    again = measure(name, declared, traced=False)
    assert again["digest"] == first["digest"]
    assert records[name, True]["digest"] == first["digest"]
    for metric in EXACT_OWN:
        assert again["own"].get(metric) == first["own"].get(metric), metric


def test_another_seed_is_another_input(records, declared):
    other = measure("home_ev", declared, traced=False, seed=43)
    assert other["digest"] != records["home_ev", False]["digest"]


def test_tracer_restores_the_original_attributes():
    from repro.hub.safehome import SafeHome
    from repro.sim.engine import Simulator
    import repro.hub.safehome as safehome_module

    originals = {
        "run": vars(SafeHome)["run"],
        "init": vars(SafeHome)["__init__"],
        "call_at": vars(Simulator)["call_at"],
        "analyze": vars(safehome_module)["analyze"],
    }
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert vars(SafeHome)["run"] is not originals["run"]
        assert tracer.leftovers()
    finally:
        tracer.uninstall()
    assert vars(SafeHome)["run"] is originals["run"]
    assert vars(SafeHome)["__init__"] is originals["init"]
    assert vars(Simulator)["call_at"] is originals["call_at"]
    assert vars(safehome_module)["analyze"] is originals["analyze"]
    assert tracer.leftovers() == []


def test_forced_oracle_violation_lands_in_failed_share(
        monkeypatch, declared):
    from perf_ledger import workloads
    from repro.metrics.oracle import OracleReport, Violation

    def broken(result, initial):
        return OracleReport(model=result.model_name, checked=("forced",),
                            violations=[Violation("forced", "by the test")])

    monkeypatch.setattr(workloads, "check_run", broken)
    record = measure("home_ev", declared, traced=True)
    homes = record["oracle"]["homes_checked"]
    assert homes >= 1
    assert record["oracle"]["violations"] == homes
    assert record["layers"]["metrics.oracle_violations"]["value"] == homes
    assert record["oracle"]["specs"][0]["invariant"] == "forced"
    # Every home of the pass is faulted: counted, and not fatal.
    assert record["ops_failed"] == record["ops_attempted"] == homes
    assert record["layers"]["ops.failed_share"]["value"] == 1.0
    assert record["correct"]


def test_forced_failed_operation_lands_in_failed_share(
        monkeypatch, declared):
    real = FleetMix.run_pass

    def one_home_failed(self, led):
        out = real(self, led)
        out.failed = 1
        return out

    monkeypatch.setattr(FleetMix, "run_pass", one_home_failed)
    record = measure("fleet_mix", declared, traced=False)
    assert record["failed"] == len(record["passes"])
    assert record["ops_failed"] == 1
    assert record["own"]["ops.failed_share"]["value"] == pytest.approx(
        1 / record["ops_attempted"])


def test_differing_outputs_between_passes_fail_the_hard_check(
        monkeypatch, declared):
    real = FleetMix.run_pass
    calls = []

    def drifting(self, led):
        out = real(self, led)
        calls.append(1)
        out.outputs.append(str(len(calls)))
        return out

    monkeypatch.setattr(FleetMix, "run_pass", drifting)
    record = measure("fleet_mix", declared, traced=False)
    assert not record["correct"]
    assert "outputs differ" in record["hard_errors"][0]


def _run_cli(*args, code=None):
    command = [sys.executable]
    command += ["-c", code] if code else [os.path.join(ROOT, "perf_ledger",
                                                      "run.py")]
    return subprocess.run(command + list(args), cwd=ROOT, text=True,
                          capture_output=True, timeout=120)


def test_cli_prints_the_contract_object_last():
    done = _run_cli("--workload", "serve_closed", "--seed", "7",
                    "--seconds", "0.05", "--trace", "0",
                    "--scale", str(SCALE))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert "serve_closed routines_per_s" in done.stdout


def test_forced_exception_sets_the_exit_code():
    code = (
        "import sys; sys.path[0:0] = [%r, %r]\n"
        "from perf_ledger import run, workloads\n"
        "def boom(self, led): raise RuntimeError('forced by the test')\n"
        "workloads.FleetMix.run_pass = boom\n"
        "sys.exit(run.main(sys.argv[1:]))\n"
        % (ROOT, os.path.join(ROOT, "src")))
    done = _run_cli("--workload", "fleet_mix", "--seconds", "0.05",
                    "--scale", str(SCALE), code=code)
    assert done.returncode != 0
    assert "forced by the test" in done.stderr
    assert not done.stdout.strip().endswith("}")
