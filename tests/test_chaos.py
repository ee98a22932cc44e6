"""Hub-crash chaos workload, fleet crash schedules, and the
`repro crash-recovery` CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.fleet import FleetConfig, FleetEngine, run_fleet
from repro.workloads.chaos import chaos_workload, run_chaos


class TestChaosWorkload:
    def test_workload_is_seed_deterministic(self):
        a = chaos_workload(seed=5)
        b = chaos_workload(seed=5)
        assert [(r.name, at) for r, at in a.arrivals] == \
            [(r.name, at) for r, at in b.arrivals]
        assert a.failure_plans == b.failure_plans
        assert chaos_workload(seed=6).arrivals[0][1] != a.arrivals[0][1]

    @pytest.mark.parametrize("execution", ("serial", "parallel"))
    @pytest.mark.parametrize("model", ("wv", "gsv", "psv", "ev", "occ"))
    def test_replay_recovery_is_congruent(self, model, execution):
        result = run_chaos(model=model, execution=execution, seed=7,
                           crashes=2)
        assert result.congruent, (model, execution)
        assert len(result.recoveries) == 2
        assert all(r["replayed_events"] > 0 for r in result.recoveries)

    def test_policy_mode_ev_keeps_all_work(self):
        result = run_chaos(model="ev", seed=7, crashes=2,
                           recovery="policy")
        assert result.congruent
        assert result.summary()["recoveries"]["aborted_in_flight"] == 0

    def test_policy_mode_gsv_sheds_in_flight_work(self):
        result = run_chaos(model="gsv", seed=7, crashes=2,
                           recovery="policy")
        assert result.summary()["recoveries"]["aborted_in_flight"] > 0
        assert result.recovered_row["committed"] < \
            result.baseline_row["committed"]

    def test_explicit_crash_point(self):
        result = run_chaos(model="ev", seed=7, crash_event=20)
        assert result.crash_events == [20]
        assert result.congruent

    def test_summary_is_deterministic_json(self):
        a = run_chaos(model="ev", seed=9, crashes=2).to_json()
        b = run_chaos(model="ev", seed=9, crashes=2).to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["congruent"] is True
        assert payload["recoveries"]["count"] == 2


class TestFleetCrashSchedules:
    def test_default_fleet_rows_unchanged(self):
        row = run_fleet(2, seed=42).rows[0]
        assert "hub_crashes" not in row

    def test_crash_fleet_is_deterministic(self):
        a = run_fleet(4, seed=42, crashes=2)
        b = run_fleet(4, seed=42, crashes=2)
        assert a.to_json(per_home=True) == b.to_json(per_home=True)

    def test_replay_mode_fleet_matches_uninterrupted_aggregate(self):
        crashed = run_fleet(4, seed=42, crashes=2, recovery="replay")
        plain = run_fleet(4, seed=42)
        assert crashed.aggregate == plain.aggregate
        rows = crashed.rows
        assert all("hub_crashes" in row for row in rows)
        assert sum(row["hub_replayed_events"] for row in rows) > 0

    def test_crash_config_lands_in_json_header(self):
        config = FleetConfig(homes=2, seed=1, crashes=3,
                             recovery="policy", check_final=False)
        result = FleetEngine(config).run()
        payload = json.loads(result.to_json())
        assert payload["fleet"]["crashes"] == 3
        assert payload["fleet"]["recovery"] == "policy"
        # default configs keep the header byte-identical to older output
        plain = json.loads(FleetEngine(
            FleetConfig(homes=2, seed=1, check_final=False)).run()
            .to_json())
        assert "crashes" not in plain["fleet"]

    def test_specs_carry_crash_schedule(self):
        config = FleetConfig(homes=2, seed=1, crashes=2,
                             recovery="policy")
        specs = FleetEngine(config).specs()
        assert all(spec.crashes == 2 and spec.recovery == "policy"
                   for spec in specs)


class TestCrashRecoveryCli:
    def test_cli_writes_deterministic_json(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert cli_main(["crash-recovery", "--model", "ev", "--seed", "3",
                         "--crashes", "2", "--json", str(first)]) == 0
        assert cli_main(["crash-recovery", "--model", "ev", "--seed", "3",
                         "--crashes", "2", "--json", str(second)]) == 0
        assert first.read_text() == second.read_text()
        payload = json.loads(first.read_text())
        assert payload["congruent"] is True
        out = capsys.readouterr()
        assert "hub crash-recovery" in out.out
        assert out.err == ""  # recovery wall time is the ledger's

    def test_cli_single_crash_event(self, capsys):
        assert cli_main(["crash-recovery", "--model", "gsv",
                         "--recovery", "policy", "--crash-event", "30",
                         "--execution", "parallel"]) == 0
        assert "policy" in capsys.readouterr().out

    def test_cli_rejects_bad_crash_point_flags(self, capsys):
        # CrashPlan is the one validator of a crash point.
        assert cli_main(["crash-recovery", "--crash-at", "2.0",
                         "--crash-event", "5"]) == 2
        assert "exactly one of at= / after_events= must be given" in \
            capsys.readouterr().err
        assert cli_main(["crash-recovery", "--crash-event", "0"]) == 2
        assert "after_events must be >= 1" in capsys.readouterr().err
