"""Regression tests for bugs found during development.

Each test encodes a concrete interleaving that once broke
serializability; they must stay green forever.
"""

import pytest

from repro.cli import main as cli_main
from repro.core.controller import ControllerConfig, RoutineStatus
from repro.hub.safehome import SafeHome
from repro.metrics.congruence import final_state_serializable
from repro.metrics.oracle import check_run
from repro.metrics.serialization import (reconstruct_serial_order,
                                         validate_serial_order)
from repro.workloads.micro import MicroParams, generate_microbenchmark
from tests.conftest import Home, routine


class TestCompactionPrecedenceLeak:
    """Commit compaction (Fig 7) removed a still-active routine's
    lock-access; a later JiT pre-lease then contradicted the erased
    order, producing a cyclic (non-serializable) execution."""

    def test_direct_compaction_leak(self):
        home = Home(model="ev", scheduler="jit", n_devices=4,
                    config=ControllerConfig(paranoid=True))
        # r0 writes dev2 then queues on dev0 behind pre-leasing shorts.
        home.submit(routine("r0", [(2, "V02", 0.0), (0, "V00", 0.0)]),
                    when=0.0)
        for index in (1, 2):
            home.submit(routine(f"s{index}", [(0, f"V{index}0", 0.0)]),
                        when=0.0)
        # r3 arrives later: dev0 (pre-lease before r0) + dev2 — its dev2
        # access must be ordered after r0 even though r5's commit
        # compacted r0's dev2 entry away.
        home.submit(routine("r3", [(0, "V30", 0.0), (1, "V31", 0.0),
                                   (2, "V32", 0.0)]), when=0.0)
        home.submit(routine("s4", [(0, "V40", 0.0)]), when=0.0)
        home.submit(routine("r5", [(2, "V52", 0.0)]), when=0.0)
        result = home.run()
        assert all(run.status is RoutineStatus.COMMITTED
                   for run in result.runs)
        order = reconstruct_serial_order(result)  # must be acyclic
        assert validate_serial_order(result, home.initial, order)

    def test_transitive_leak_through_committed_routine(self):
        """The subtler variant: the constraint flowed through a
        *committed* middleman (r0 < r4 on dev2; r4 commits; r1 then
        placed after r4's committed dev1 state but pre-leased before r0
        on dev0)."""
        home = Home(model="ev", scheduler="jit", n_devices=4,
                    config=ControllerConfig(paranoid=True))
        home.submit(routine("r0", [(2, "A", 0.0), (0, "B", 0.0),
                                   (3, "C", 0.0)]), when=0.0)
        home.submit(routine("r1", [(0, "D", 0.0), (1, "E", 0.0)]),
                    when=0.1)
        home.submit(routine("r2", [(0, "F", 0.0)]), when=0.0)
        home.submit(routine("r3", [(0, "G", 0.0)]), when=0.0)
        home.submit(routine("r4", [(1, "H", 0.0), (2, "I", 0.0)]),
                    when=0.0)
        home.submit(routine("r5", [(0, "J", 0.5)]), when=0.0)
        result = home.run()
        order = reconstruct_serial_order(result)
        assert validate_serial_order(result, home.initial, order)

    def test_constraints_cleared_when_routine_finishes(self):
        """The retained order must drain once its routines finish (it
        would progressively forbid all pre-leases), and snapshot as no
        rows."""
        home = Home(model="ev", scheduler="jit", n_devices=2)
        home.submit(routine("a", [(0, "A", 0.5), (1, "B", 1.0)]),
                    when=0.0)
        home.submit(routine("b", [(0, "C", 0.5)]), when=0.1)
        home.run()
        order = home.controller.table.order
        assert not order.successors and not order.predecessors
        assert not order.frontier
        assert home.controller.snapshot_state()["retained_order"] == ()


class TestRollbackRace:
    """Rollback writes used to fly through the driver with their own
    network delay, racing the next conflicting routine's first command;
    the successor then captured a stale prior state and 'restored' the
    aborted value on its own abort."""

    def test_psv_rollback_ordered_before_successor(self):
        home = Home(model="psv", n_devices=3)
        r0 = home.submit(routine("r0", [(0, "ON", 0.0), (1, "ON", 0.5)]),
                         when=0.0)
        others = [home.submit(routine(f"r{i}", [(0, "ON", 0.0)]),
                              when=0.0) for i in range(1, 5)]
        r5 = home.submit(routine("r5", [(1, "ON", 0.0)]), when=0.0)
        home.detect_failure(0, at=0.5)
        result = home.run()
        assert validate_serial_order(result, home.initial)

    def test_successor_prior_state_sees_rollback(self):
        home = Home(model="gsv", n_devices=2)
        bad = home.submit(routine("bad", [(0, "DIRTY", 0.5),
                                          (1, "ON", 5.0)]), when=0.0)
        follow = home.submit(routine("follow", [(0, "CLEAN", 0.5)]),
                             when=0.1)
        home.detect_failure(1, at=2.0)  # aborts bad mid device-1 touch
        result = home.run()
        assert bad.status is RoutineStatus.ABORTED
        assert follow.status is RoutineStatus.COMMITTED
        # follow's write lands over the rolled-back OFF, never DIRTY.
        assert [value for _t, value, _source in
                result.device_write_logs[0]] == ["DIRTY", "OFF", "CLEAN"]
        assert result.end_state[0] == "CLEAN"


class TestRevocationPostLeaseInteraction:
    """With post-leasing ablated, locks are held to routine finish;
    duration-based revocation deadlines then fired spuriously and
    aborted healthy routines."""

    def test_no_spurious_revocation_with_post_lease_off(self):
        config = ControllerConfig(pre_lease=True, post_lease=False,
                                  paranoid=True)
        home = Home(model="ev", scheduler="jit", n_devices=3,
                    config=config)
        home.submit(routine("r0", [(0, "A", 0.0), (1, "B", 0.0),
                                   (2, "C", 0.0)]), when=0.1)
        home.submit(routine("r1", [(0, "D", 0.0)]), when=0.0)
        home.submit(routine("r2", [(2, "E", 0.0), (1, "F", 0.0)]),
                    when=0.1)
        home.submit(routine("r3", [(1, "G", 2.0)]), when=0.1)
        result = home.run()
        assert all(run.status is RoutineStatus.COMMITTED
                   for run in result.runs)
        assert final_state_serializable(result, home.initial)


class TestEvLeaseCounterexamples:
    """The two smallest seeded micro homes on which EV under leases was
    not serializable (no abort, no failure): the lineage table forgot an
    order a later pre-lease then contradicted.  The retained order keeps
    every order a lineage exit would have dropped."""

    @staticmethod
    def violations(params, seed, **home):
        hub = SafeHome(visibility="ev", seed=seed, **home)
        hub.load_workload(generate_microbenchmark(params, seed=seed))
        return check_run(hub.run(), hub.initial).violations

    def test_timeline_26_routines_12_devices_seed_11(self):
        assert self.violations(
            MicroParams(routines=26, concurrency=8, devices=12), 11,
            scheduler="timeline", execution="serial") == []

    def test_jit_40_routines_seed_4(self):
        assert self.violations(
            MicroParams(routines=40, concurrency=8), 4,
            scheduler="jit") == []


class TestOccRollbackOverAnUncommittedWrite:
    """OCC used to restore the last *committed* value when it rolled
    back, which erased an overwritten writer that later committed.  On
    device 3, R72 writes ``ON`` at t=114.37; R66 overwrites it with
    ``OFF`` at 115.55 and aborts at 120.77; restoring R60's committed
    ``OFF`` lost R72's write when R72 committed at 125.94 (the oracle
    reported ``abort-erasure``).  Serial OCC failed 4 of 144 cells of
    Fig 16's micro grid this way (C 1-8, workload seed 13*s+t, hub seed
    s+t, s 10-12, t 0-3).  Fixed by the per-device write chain: R66's
    abort restores the newest write still live under it, R72's ``ON``,
    whether or not R72 later commits."""

    def test_rollback_keeps_the_overwritten_writers_value(self):
        params = MicroParams(routines=40, concurrency=4, devices=15,
                             commands_per_routine=2.0,
                             long_duration_s=120.0, short_duration_s=5.0)
        home = SafeHome(visibility="occ", seed=12)
        home.load_workload(generate_microbenchmark(params, seed=132))
        report = check_run(home.run(), home.initial)
        assert [v.invariant for v in report.violations] == []


class TestTypedRefusalsReachTheUserAsOneLine:
    """A ``SafeHomeError`` used to leave ``repro`` as a traceback with
    exit 1; ``cli.main`` now prints ``repro: <message>`` and exits 2."""

    def test_crash_recovery_into_a_used_wal_dir(self, tmp_path, capsys):
        argv = ["crash-recovery", "--model", "ev", "--seed", "3",
                "--wal-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "repro: refusing to overwrite existing WAL segments")
        assert captured.err.count("\n") == 1 and "Traceback" not in \
            captured.err

    def test_fleet_into_a_dir_with_a_leftover_worker_file(self, tmp_path,
                                                          capsys):
        (tmp_path / "spool-999-1.seg").write_bytes(b"")
        assert cli_main(["fleet", "--homes", "4", "--crashes", "1",
                         "--wal-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: refusing to spool into")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        (["scenario", "morning", "--model", "foo"],
         "repro: unknown visibility model 'foo'; pick from ["),
        (["scenario", "morning", "--scheduler", "foo"],
         "repro: unknown scheduler 'foo'; pick from ["),
        (["scenario", "beach-day"],
         "repro: unknown fleet scenario 'beach-day'; pick from ["),
        (["export-trace", "beach-day", "unwritten.json"],
         "repro: unknown fleet scenario 'beach-day'; pick from ["),
        (["run-trace", "/nonexistent/trace.json"],
         "repro: [Errno 2] No such file or directory"),
    ], ids=["model", "scheduler", "scenario", "export-trace", "no-such-trace"])
    def test_a_typo_on_scenario_or_run_trace(self, argv, message, capsys):
        """Each of these was a ValueError / FileNotFoundError traceback
        (the unknown scenario a bare line without the choices on
        ``export-trace``)."""
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_run_trace_on_a_trace_without_devices(self, tmp_path, capsys):
        trace = tmp_path / "empty.json"
        trace.write_text('{"name": "empty", "devices": []}')
        assert cli_main(["run-trace", str(trace)]) == 2
        assert capsys.readouterr().err == \
            "repro: workload 'empty' has no devices\n"


class TestHomesBuiltFromOneConfigDoNotAlias:
    """``SafeHome`` wrote its scheduler and execution into the caller's
    ``ControllerConfig``: a second home built from the same object
    changed the first one's — and ``execution`` is read lazily, so a
    live home switched plan strategy mid-run."""

    def test_each_home_keeps_its_own_scheduler_and_execution(self):
        shared = ControllerConfig(leniency_factor=1.5)
        first = SafeHome(scheduler="fcfs", config=shared)
        second = SafeHome(scheduler="jit", execution="parallel",
                          config=shared)
        assert first.config is not second.config
        assert (first.config.scheduler, first.config.execution) == \
            ("fcfs", "serial")
        assert (second.config.scheduler, second.config.execution) == \
            ("jit", "parallel")
        assert first.config.leniency_factor == \
            second.config.leniency_factor == 1.5
        assert shared == ControllerConfig(leniency_factor=1.5)
        # reset() rebuilds the policy layers: still no write-through.
        second.reset(seed=1)
        assert shared.scheduler == "timeline" and \
            first.config.scheduler == "fcfs"
