"""BENCHMARK.json keeps to the benchmark contract; spec.json keeps to
BENCHMARK.json."""

import json
import os
import re

import pytest

from perf_ledger.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def spec():
    path = os.path.join(ROOT, "perf_ledger", "spec.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_top_level_keys_and_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["perf_ledger"]
    assert contract["command"] == ["python3", "perf_ledger/run.py"]
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    size = os.path.getsize(os.path.join(ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024


def test_driver_run_budget(contract):
    """4 + 22 x workloads runs must end within 3420 s; a run measures
    at least run_seconds, finishes the pass it is in and adds set-up,
    verification and the set-up repeats (15.2 s a run on average here
    at run_seconds 8; 10 s beyond run_seconds allowed)."""
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 10) <= 3420


def test_names_units_and_shapes(contract):
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)


def test_setup_metric_has_the_largest_bound(contract):
    by_name = {m["name"]: m for m in contract["end_to_end"]}
    setup = by_name["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"]
                                 for m in contract["end_to_end"])


def test_workloads_match_the_implementation(contract, spec):
    declared = [w["name"] for w in contract["workloads"]]
    assert declared == list(WORKLOADS)
    assert set(spec["workloads"]) == set(declared)
    for name, entry in spec["workloads"].items():
        assert entry["clients"] == WORKLOADS[name].clients
        assert entry["loop"].startswith("closed")


def test_every_layer_row_names_an_end_to_end_metric_and_workload(
        contract, spec):
    e2e = {m["name"] for m in contract["end_to_end"]}
    workloads = {w["name"] for w in contract["workloads"]}
    layer_names = {m["name"] for m in contract["per_layer"]}
    assert set(spec["moves"]) == layer_names
    for name, move in spec["moves"].items():
        assert move["metric"] in e2e, name
        assert move["workloads"], name
        assert set(move["workloads"]) <= workloads, name
    for metric in spec["workload_end_to_end"]:
        assert metric["name"] in layer_names
        assert set(metric["workloads"]) <= workloads
        assert set(metric.get("bound_on", {})) <= set(metric["workloads"])
        assert 0 <= metric["bound"] <= 0.25
    for name in spec["exact"]:
        assert name in e2e | layer_names
