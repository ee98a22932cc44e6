"""Durable hub: WAL, checkpoints, snapshot contracts, crash/recovery."""

import json
import marshal

import pytest

from repro.core.command import Command
from repro.core.controller import ControllerConfig
from repro.core.execution.locks import GLOBAL, LockMode, LockTable
from repro.core.execution.plan import CommandPlan, NodeState
from repro.core.execution.queues import DeviceQueues
from repro.core.lineage import UNSET, Lineage, LineageTable, LockAccess
from repro.core.routine import Routine
from repro.errors import HubCrashedError, SafeHomeError
from repro.hub.durability import (DurabilityConfig, WriteAheadLog,
                                  state_digest)
from repro.hub.durability import replay as replay_engine
from repro.hub.durability.storage import encode_log, scan_log
from repro.hub.log import FeedbackKind
from repro.hub.safehome import SafeHome
from tests.conftest import routine


def build_home(model="ev", execution=None, seed=3, durability=True,
               config=None):
    home = SafeHome(visibility=model, execution=execution, seed=seed,
                    durability=durability, config=config)
    home.add_device("window", "w")
    home.add_device("ac", "a")
    home.add_device("light", "l")
    home.register_routine_spec({"routineName": "cool", "commands": [
        {"device": "w", "action": "CLOSED", "durationSec": 2},
        {"device": "a", "action": "ON", "durationSec": 3}]})
    home.register_routine_spec({"routineName": "party", "commands": [
        {"device": "l", "action": "ON", "durationSec": 1},
        {"device": "a", "action": "OFF", "durationSec": 2}]})
    home.plan_failure("l", fail_at=1.5, restart_at=4.0)
    home.invoke("cool")
    home.invoke("party", at=0.5)
    return home


def report_json(home):
    return json.dumps(home.report().row(), sort_keys=True, default=repr)


def build_home_run():
    home = build_home()
    home.run()
    return home


class TestWriteAheadLog:
    def test_append_and_views(self):
        wal = WriteAheadLog()
        wal.append("device-added", {"type": "light", "name": "l"}, 0.0)
        wal.buffer_observation("command-dispatched", {"routine_id": 0}, 1.0)
        assert len(wal.inputs()) == 1
        # The observation is folded, not kept.
        assert [r.type for r in wal.records] == ["device-added"]
        assert wal.observed()["observations"] == 1

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            WriteAheadLog().append("nonsense", {}, 0.0)

    def test_observations_cannot_be_appended_as_records(self):
        with pytest.raises(ValueError, match="input or marker"):
            WriteAheadLog().append("command-dispatched", {}, 0.0)

    def test_json_round_trip(self):
        wal = WriteAheadLog()
        wal.append("invoked", {"spec": {"routineName": "r"}, "when": 1.5},
                   1.5)
        wal.buffer_observation("detection",
                               {"kind": "failure", "device_id": 2}, 2.0)
        wal.append("crash", {"at": None, "after_events": 7}, 2.0)
        # The one serialized form: a CRC-framed log image.
        restored = scan_log(encode_log(wal.records, [],
                                       observed=wal.observed()))
        assert restored.status == "clean" and restored.clean_close
        assert [r.to_dict() for r in restored.records] == \
            [r.to_dict() for r in wal.records]
        assert wal.observed().items() <= restored.seals[-1].items()
        assert wal.observed()["observations"] == 1


class TestSnapshotContracts:
    """Every layer snapshots as plain rows: tuples of scalars, which
    the checkpoint digest encodes with ``marshal`` version 2."""

    def test_lock_table_snapshot(self):
        table = LockTable()
        table.acquire(1, GLOBAL, now=0.5)
        table.acquire(2, GLOBAL, now=0.7)           # queued FIFO
        table.acquire(1, 7, mode=LockMode.SHARED, now=0.9, deadline=5.0)
        resources, wait_seconds, stats = table.snapshot()
        assert [row[0] for row in resources] == sorted([GLOBAL, 7])
        by_resource = {row[0]: row for row in resources}
        _, grants, waiters = by_resource[GLOBAL]
        assert [grant[0] for grant in grants] == [1]
        assert [waiter[0] for waiter in waiters] == [2]
        assert by_resource[7][1] == ((1, LockMode.SHARED.value, 0.9, 5.0),)
        assert dict(stats) == table.stats and wait_seconds == ()
        # plain rows: marshal takes them without a fallback
        marshal.dumps(table.snapshot(), 2)

    def test_command_plan_snapshot(self):
        commands = [Command(device_id=0, value="ON", duration=1.0),
                    Command(device_id=0, value="OFF", duration=1.0),
                    Command(device_id=1, value="ON", duration=1.0)]
        plan = CommandPlan(Routine("r", commands), "parallel")
        plan.mark_issued(plan.ready[0], now=0.0)
        plan.mark_done(0, now=1.0)
        strategy, nodes = plan.snapshot()
        assert strategy == "parallel"
        assert nodes == ((0, NodeState.DONE.value, 0.0, 0.0),
                         (1, NodeState.READY.value, 1.0, None),
                         (2, NodeState.READY.value, 0.0, None))
        # plain rows: marshal takes them without a fallback
        marshal.dumps(plan.snapshot(), 2)

    def test_device_queue_snapshot(self):
        queues = DeviceQueues()
        queues.submit(1, lambda: True)
        queues.submit(1, lambda: True)
        assert queues.snapshot() == ((1,), ((1, 1),))

    def test_lineage_snapshot(self):
        lineage = Lineage(4, committed_state="OFF")
        lineage.append(LockAccess(routine_id=1, device_id=4,
                                  planned_start=0.0, duration=2.0))
        lineage.acquire(1, 0.1)
        lineage.entries[0].applied_value = "ON"
        lineage.release(1, 0.4)
        lineage.append(LockAccess(routine_id=2, device_id=4,
                                  planned_start=2.0, duration=1.0))
        device_id, source, committed, entries = lineage.snapshot()
        assert (device_id, source, committed) == (4, None, ("OFF",))
        assert [entry[0] for entry in entries] == [1, 2]
        assert entries[0][-2:] == ((), ("ON",))     # final UNSET, applied
        assert entries[1][-1] == ()                 # UNSET
        assert Lineage(4).snapshot()[2] == ()
        # ``UNSET`` is a marker, never a repr: a state that reads like
        # it digests differently
        assert Lineage(4, committed_state=repr(UNSET)).snapshot() != \
            Lineage(4).snapshot()

    def test_lineage_table_snapshot(self):
        table = LineageTable(committed_lookup=lambda d: "OFF")
        table.lineage(3).append(LockAccess(routine_id=9, device_id=3))
        table.lineage(0).append(LockAccess(routine_id=9, device_id=0))
        assert [rows[0] for rows in table.snapshot()] == [0, 3]
        assert table.order.snapshot() == ()

    def test_registry_snapshot_full(self, home_factory):
        home = home_factory(n_devices=2)
        home.registry.get(0).apply("ON", 1.0, source=7)
        home.registry.get(1).fail()
        first, second = home.registry.snapshot_full()
        initial = home.registry.get(0).initial_state
        assert first == (0, first[1], "ON", False, initial, 1)
        assert second[0] == 1 and second[3]

    def test_controller_snapshots_are_digestable(self):
        for model in ("wv", "gsv", "psv", "ev", "occ"):
            home = build_home(model=model)
            home.run(until=1.0)
            digest = state_digest(home._capture_state())
            assert len(digest) == 64


class TestCrashRecoverApi:
    def test_crash_requires_durability(self):
        home = SafeHome(visibility="ev", durability=None)
        with pytest.raises(SafeHomeError):
            home.crash(after_events=1)

    def test_crash_needs_exactly_one_point(self):
        home = build_home()
        with pytest.raises(ValueError):
            home.crash()
        with pytest.raises(ValueError):
            home.crash(at=1.0, after_events=5)

    def test_crashed_hub_rejects_operations(self):
        home = build_home()
        home.crash(after_events=5)
        home.run()
        assert home.crashed
        with pytest.raises(HubCrashedError):
            home.run()
        with pytest.raises(HubCrashedError):
            home.invoke("cool")
        with pytest.raises(HubCrashedError):
            home.add_device("light", "l2")

    def test_recover_requires_crash(self):
        home = build_home()
        with pytest.raises(SafeHomeError):
            home.recover()

    def test_crash_at_time_past_end_never_fires(self):
        home = build_home()
        home.crash(at=1e6)
        home.run()
        assert not home.crashed
        # makespan is the natural end, not the crash bound
        assert home.last_result.makespan < 1e5

    def test_journaling_does_not_change_behavior(self):
        durable = build_home(durability=True)
        durable.run()
        plain = build_home(durability=False)
        plain.run()
        assert report_json(durable) == report_json(plain)

    def test_recovery_report_counts(self):
        home = build_home()
        home.crash(after_events=10)
        home.run()
        report = home.recover()
        assert report.mode == "replay"
        assert report.crash_events == 10
        assert report.replayed_events == 10
        assert report.replayed_records > 0
        assert home.recoveries == [report]

    def test_multi_crash_recover_is_congruent(self):
        baseline = build_home()
        baseline.run()
        home = build_home()
        for point in (8, 20, 33):
            home.crash(after_events=point)
            home.run()
            home.recover()
        home.run()
        assert report_json(home) == report_json(baseline)
        assert len(home.recoveries) == 3

    def test_checkpoints_stay_congruent(self):
        config = DurabilityConfig(checkpoint_every=5)
        baseline = build_home(durability=config)
        baseline.run()
        home = build_home(durability=DurabilityConfig(checkpoint_every=5))
        home.crash(after_events=30)
        home.run()
        report = home.recover()
        home.run()
        assert report.checkpoints_verified > 0
        assert report_json(home) == report_json(baseline)

    def test_failed_recovery_leaves_hub_crashed_and_retryable(self,
                                                              monkeypatch):
        """Regression: an exception escaping replay used to leave the
        hub marked alive on a half-replayed stack."""
        home = build_home()
        home.crash(after_events=10)
        home.run()
        original = replay_engine.apply_input
        calls = {"n": 0}

        def explode_once(home, record):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("boom mid-replay")
            return original(home, record)

        monkeypatch.setattr(replay_engine, "apply_input", explode_once)
        with pytest.raises(RuntimeError):
            home.recover()
        assert home.crashed
        with pytest.raises(HubCrashedError):
            home.invoke("cool")
        monkeypatch.setattr(replay_engine, "apply_input", original)
        report = home.recover()      # retry succeeds on the intact WAL
        home.run()
        assert report.replayed_events == 10
        assert report_json(home) == report_json(build_home_run())

    def test_wal_survives_crash_and_serializes(self):
        home = build_home()
        home.crash(after_events=12)
        home.run()
        home.recover()
        home.run()
        restored = scan_log(encode_log(home.wal.records,
                                       home.durability.checkpoints))
        types = [r.type for r in restored.records]
        assert "crash" in types and "recovery" in types
        assert types[0] == "home-created"
        assert [r.to_dict() for r in restored.records] == \
            [r.to_dict() for r in home.wal.records]
        assert [seal["digest"] for seal in restored.seals[:-1]] == \
            [c.digest for c in home.durability.checkpoints]


@pytest.mark.parametrize("model", ["wv", "gsv", "psv", "ev", "occ"])
def test_every_replay_door_reaches_one_answer(model):
    """recover, salvage_records, migrate and spool replay are callers
    of one engine: the same crashed log through each door lands on the
    same report and the same checkpoint digests."""
    from repro.fleet.spool import home_wal_record, replay_spooled_home

    def crashed():
        home = build_home(model=model,
                          durability=DurabilityConfig(checkpoint_every=5))
        home.crash(after_events=30)
        home.run()
        assert home.crashed
        return home

    def answer(home):
        return report_json(home), [checkpoint.digest for checkpoint
                                   in home.durability.checkpoints]

    recovered = crashed()
    recovered.recover("replay")
    records = list(crashed().wal.records)
    salvaged = replay_engine.build_home(records)
    salvaged.salvage_records(records, bounded=False)
    migrated = crashed()
    migrated.recover("replay")
    boundary = len(migrated.durability.checkpoints)
    migrated.migrate(model)
    spooled = replay_spooled_home({
        "home_id": 0, "scenario": "doors", "seed": 3,
        "log": home_wal_record(0, "doors", 3, crashed())})
    assert spooled.crashed      # left where the log ends, unhealed

    at_crash = answer(recovered)
    assert len(at_crash[1]) > 0
    assert answer(salvaged) == answer(spooled) == at_crash
    # migrate() forces one boundary checkpoint of its own before replay.
    assert answer(migrated) == at_crash
    assert boundary == len(at_crash[1])

    spooled.recover("replay")
    for home in (recovered, salvaged, migrated, spooled):
        home.run()
    assert answer(migrated) == answer(spooled) == answer(recovered)
    # Salvage restarts under the per-model policy: strict models abort
    # what was in flight, the others carry on exactly like a replay.
    if not salvaged.recoveries[-1].aborted:
        assert answer(salvaged) == answer(recovered)


class TestRecoveryPolicy:
    def test_policy_table(self):
        expected = {"wv": "resume", "gsv": "abort", "sgsv": "abort",
                    "psv": "abort", "ev": "resume", "occ": "resume"}
        from repro.core.visibility import VisibilityModel, _CONTROLLERS
        for model, policy in expected.items():
            cls = _CONTROLLERS[VisibilityModel.parse(model)]
            assert cls.hub_recovery_policy == policy, model

    @pytest.mark.parametrize("model,aborts", [
        ("gsv", True), ("psv", True), ("wv", False), ("ev", False),
        ("occ", False)])
    def test_policy_mode_fate_of_running_routines(self, model, aborts):
        home = build_home(model=model)
        home.crash(at=0.8)        # mid-execution for every model
        home.run()
        report = home.recover(mode="policy")
        home.run()
        assert bool(report.aborted) == aborts
        if aborts:
            run = home.controller.run_by_id(report.aborted[0])
            assert "hub" in run.abort_reason

    def test_ev_policy_mode_stays_congruent(self):
        baseline = build_home(model="ev")
        baseline.run()
        home = build_home(model="ev")
        home.crash(at=0.8)
        home.run()
        home.recover(mode="policy")
        home.run()
        assert report_json(home) == report_json(baseline)


class TestFeedbackRestartWiring:
    def test_device_restart_feedback_emitted_live(self):
        """Regression: DEVICE_RESTARTED entries used to require an
        explicit record_detections() back-fill and were dropped in
        every live path."""
        home = build_home(durability=False)
        home.run()
        kinds = [e.kind for e in home.feedback.entries]
        assert FeedbackKind.DEVICE_FAILED in kinds
        assert FeedbackKind.DEVICE_RESTARTED in kinds

    def test_record_detections_is_idempotent_after_live_wiring(self):
        home = build_home(durability=False)
        home.run()
        before = len(home.feedback.entries)
        home.feedback.record_detections()
        home.feedback.record_detections()
        assert len(home.feedback.entries) == before

    def test_late_attached_log_backfills_without_duplicates(self):
        """Regression: a log attached to an already-running controller
        used to refold the live tail and skip the pre-attach head."""
        from repro.hub.log import FeedbackLog

        home = build_home(durability=False)
        home.run(until=3.0)            # failure@1.5 detected ~2.1
        assert home.controller.detection_events
        late = FeedbackLog(home.controller)
        home.run()                      # restart@4.0 arrives live
        late.record_detections()        # back-fill the pre-attach head
        late.record_detections()        # idempotent
        detections = [(e.kind, e.detail) for e in late.entries
                      if e.kind in (FeedbackKind.DEVICE_FAILED,
                                    FeedbackKind.DEVICE_RESTARTED)]
        assert len(detections) == len(home.controller.detection_events)
        assert len(set(detections)) == len(detections)

    def test_hub_crash_and_restart_feedback(self):
        home = build_home()
        home.crash(after_events=10)
        home.run()
        home.recover()
        kinds = [e.kind for e in home.feedback.entries]
        assert FeedbackKind.HUB_CRASHED in kinds
        assert FeedbackKind.HUB_RESTARTED in kinds


class TestParallelDispatchRegression:
    def test_believed_failed_device_does_not_double_issue(self,
                                                          home_factory):
        """Regression: a command to a believed-failed device resolves
        synchronously, re-entering _dispatch mid-iteration; the outer
        loop then issued later-ready nodes a second time."""
        config = ControllerConfig(execution="parallel")
        home = home_factory(model="ev", n_devices=3, config=config)
        home.detect_failure(0, at=0.0)
        home.submit(routine("r", [(0, "ON", 1.0, False),
                                  (1, "ON", 1.0), (2, "ON", 1.0)]),
                    when=0.5)
        result = home.run()
        assert result.runs[0].done


class TestObservationBuffering:
    """WAL observations buffer per event boundary (PR 5) and are folded
    into the rolling digest there (PR 22): only ``checkpoint`` ones
    become records."""

    def test_buffer_flushes_in_order_before_inputs(self):
        from repro.hub.durability.wal import WriteAheadLog

        wal = WriteAheadLog()
        wal.append("device-added", {"type": "light", "name": "a"}, 0.0)
        wal.buffer_observation("routine-submitted", {"routine_id": 0}, 1.0)
        wal.buffer_observation("checkpoint", {"index": 0}, 1.0)
        wal.buffer_observation("lineage-placed", {"routine_id": 0}, 1.0)
        assert wal.observation_count == 0         # folded at flush
        # An input append drains the buffer first, keeping total order.
        wal.append("invoked", {"spec": {}}, 2.0)
        types = [record.type for record in wal.records]
        assert types == ["device-added", "checkpoint", "invoked"]
        assert [record.seq for record in wal.records] == [0, 1, 2]
        assert wal.observation_count == 3

    def test_reads_drain_the_buffer(self):
        from repro.hub.durability.wal import WriteAheadLog

        wal = WriteAheadLog()
        empty = wal.observed()
        wal.buffer_observation("admission", {"routine_id": 1}, 0.5)
        assert wal.records == [] and wal.observation_count == 1
        assert wal.observed()["obs_digest"] != empty["obs_digest"]
        wal.buffer_observation("detection", {"kind": "failure"}, 0.7)
        assert wal.flush() == 1 and wal.flush() == 0
        assert wal.observation_count == 2

    def test_digest_is_the_marshal_rows_of_the_entries(self):
        import hashlib
        import struct

        from repro.hub.durability.wal import WriteAheadLog

        wal = WriteAheadLog()
        wal.buffer_observation("admission", {"a": [1, 2], "granted": True},
                               0.5)
        wal.buffer_observation("detection", {"state": object}, 0.75)
        rows = (
            b"(\x03\x00\x00\x00"                # a 3-tuple: "(" + u32
            b"u\t\x00\x00\x00admission"          # str: "u" + u32 + UTF-8
            b"g" + struct.pack("<d", 0.5) +         # float: binary double
            b"{u\x01\x00\x00\x00a"                # dict, in insertion order
            b"[\x02\x00\x00\x00i\x01\x00\x00\x00i\x02\x00\x00\x00"
            b"u\x07\x00\x00\x00grantedT"          # True
            b"0"                                    # end of dict
            # marshal rejects the class: this entry alone is folded
            # with its repr, its neighbour keeps its own bytes.
            b"(\x03\x00\x00\x00u\t\x00\x00\x00detection"
            b"g" + struct.pack("<d", 0.75) +
            b"{u\x05\x00\x00\x00stateu\x10\x00\x00\x00<class 'object'>0")
        assert wal.observed() == {
            "obs_digest": hashlib.sha256(rows).hexdigest(),
            "observations": 2}

    def test_buffer_rejects_non_observation_types(self):
        from repro.hub.durability.wal import WriteAheadLog

        wal = WriteAheadLog()
        with pytest.raises(ValueError):
            wal.buffer_observation("invoked", {}, 0.0)

    def test_canonical_payload_memoized_and_shared_by_copy(self):
        from repro.hub.durability.wal import WriteAheadLog

        wal = WriteAheadLog()
        record = wal.append("failure-planned", {"fail_at": 1.5,
                                                "device_id": 3}, 1.0)
        first = record.identity()
        assert record._canonical is not None
        copied = WriteAheadLog().copy_record(record)
        assert copied._canonical is record._canonical
        assert copied.identity()[1:] == first[1:]
