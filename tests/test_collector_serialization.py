"""Tests for the metrics collector and serialization reconstruction."""

import pytest

from repro.metrics.collector import (analyze, parallelism_samples,
                                     stretch_factors)
from repro.metrics.serialization import reconstruct_serial_order
from repro.errors import SafeHomeError
from tests.conftest import Home, routine


class TestParallelism:
    def test_two_overlapping_routines(self):
        home = Home(model="ev", n_devices=2)
        home.submit(routine("a", [(0, "ON", 10.0)]), when=0.0)
        home.submit(routine("b", [(1, "ON", 10.0)]), when=2.0)
        result = home.run()
        samples = parallelism_samples(result)
        assert max(samples) == 2

    def test_serial_execution_never_exceeds_one(self):
        home = Home(model="gsv", n_devices=2)
        home.submit(routine("a", [(0, "ON", 5.0)]), when=0.0)
        home.submit(routine("b", [(1, "ON", 5.0)]), when=0.0)
        result = home.run()
        assert max(parallelism_samples(result)) == 1

    def test_empty(self):
        from repro.core.controller import RunResult
        empty = RunResult(model_name="ev", runs=[], end_state={},
                          makespan=0.0, device_write_logs={},
                          detection_events=[], device_access_order={})
        assert parallelism_samples(empty) == []


class TestStretch:
    def test_unblocked_routine_stretch_near_one(self):
        home = Home(model="ev", n_devices=1)
        home.submit(routine("a", [(0, "ON", 10.0)]))
        result = home.run()
        factors = stretch_factors(result)
        assert len(factors) == 1
        assert factors[0] == pytest.approx(1.0, abs=0.05)

    def test_blocked_mid_execution_stretches(self):
        # b grabs device 1 first; a acquires device 0, then waits for
        # device 1 mid-flight -> stretch > 1.
        home = Home(model="ev", scheduler="fcfs", n_devices=2)
        home.submit(routine("b", [(1, "ON", 20.0)]), when=0.0)
        a = home.submit(routine("a", [(0, "ON", 5.0), (1, "OFF", 5.0)]),
                        when=1.0)
        result = home.run()
        factors = stretch_factors(result)
        stretched = [f for f in factors if f > 1.3]
        assert stretched  # a waited ~15s inside a 10s routine


class TestAnalyze:
    def test_report_fields_and_row(self):
        home = Home(model="ev", n_devices=2)
        home.submit(routine("a", [(0, "ON", 1.0)]), when=0.0)
        home.submit(routine("b", [(1, "ON", 1.0)]), when=0.0)
        result = home.run()
        report = analyze(result, home.initial)
        assert report.routines == 2
        assert report.committed == 2
        assert report.final_congruent is True
        assert report.latency["n"] == 2
        assert report.norm_latency["p50"] >= 1.0
        row = report.row()
        assert row["model"] == "ev"
        assert row["final_ok"] is True

    def test_check_final_disabled(self):
        home = Home(model="ev", n_devices=1)
        home.submit(routine("a", [(0, "ON", 1.0)]))
        result = home.run()
        report = analyze(result, home.initial, check_final=False)
        assert report.final_congruent is None

    def test_cyclic_wv_run_reports_no_serial_order(self):
        home = Home(model="wv", n_devices=2)
        home.submit(routine("a", [(0, "A0", 4.0), (1, "A1", 4.0)]),
                    when=0.0)
        home.submit(routine("b", [(1, "B1", 4.0), (0, "B0", 4.0)]),
                    when=0.0)
        report = analyze(home.run(), home.initial, check_final=False)
        assert report.serial_order == []
        assert report.order_mismatch == 0.0

    def test_reconstruction_defect_is_not_swallowed(self, monkeypatch):
        """Only the expected cycle error means "no serial order"; any
        other failure inside the reconstruction is a bug to surface."""
        from repro.metrics import serialization

        def broken(_result):
            raise KeyError("defect")

        monkeypatch.setattr(serialization, "reconstruct_serial_order",
                            broken)
        home = Home(model="ev", n_devices=1)
        home.submit(routine("a", [(0, "ON", 1.0)]))
        result = home.run()
        with pytest.raises(KeyError):
            analyze(result, home.initial, check_final=False)

    def test_abort_metrics_match_run_result(self):
        home = Home(model="ev", n_devices=2)
        home.submit(routine("good", [(0, "ON", 1.0)]), when=0.0)
        home.submit(routine("bad", [(0, "X", 1.0), (1, "ON", 10.0)]),
                    when=0.0)
        home.detect_failure(1, at=3.0)
        result = home.run()
        report = analyze(result, home.initial)
        assert report.aborted == 1
        assert report.abort_rate == result.abort_rate == 0.5
        assert report.rollback_overhead_mean == \
            sum(result.rollback_overheads()) > 0


class TestSerialOrderReconstruction:
    def test_arrival_order_when_conflicting(self):
        home = Home(model="ev", scheduler="fcfs", n_devices=1)
        runs = [home.submit(routine(f"r{i}", [(0, f"V{i}", 1.0)]),
                            when=i * 0.1) for i in range(4)]
        result = home.run()
        assert reconstruct_serial_order(result) == \
            [r.routine_id for r in runs]

    def test_cycle_detected_for_wv(self):
        """WV can produce non-serializable access orders; the
        reconstruction must refuse rather than fabricate an order."""
        home = Home(model="wv", n_devices=2)
        # a: dev0 then dev1 (slow); b: dev1 then dev0 (slow) -> each is
        # first on one device: a<b on dev0, b<a on dev1 -> cycle.
        home.submit(routine("a", [(0, "A0", 4.0), (1, "A1", 4.0)]),
                    when=0.0)
        home.submit(routine("b", [(1, "B1", 4.0), (0, "B0", 4.0)]),
                    when=0.0)
        result = home.run()
        with pytest.raises(SafeHomeError):
            reconstruct_serial_order(result)

    def test_aborted_routines_excluded(self):
        home = Home(model="ev", n_devices=2)
        good = home.submit(routine("good", [(0, "ON", 1.0)]), when=0.0)
        bad = home.submit(routine("bad", [(1, "ON", 10.0)]), when=0.0)
        home.detect_failure(1, at=3.0)
        result = home.run()
        order = reconstruct_serial_order(result)
        assert order == [good.routine_id]


class TestSchedulerStats:
    def test_stats_counted(self):
        home = Home(model="ev", scheduler="timeline", n_devices=2)
        home.submit(routine("r1", [(0, "A", 30.0), (1, "B", 1.0)]),
                    when=0.0)
        home.submit(routine("r2", [(1, "C", 1.0)]), when=0.1)
        home.run()
        stats = home.controller.scheduler_stats
        assert stats["placements"] == 2
        assert stats["pre_leases"] >= 1
