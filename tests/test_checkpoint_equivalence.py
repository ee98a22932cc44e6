"""Differential tests for the checkpoint digest and the record frame.

A checkpoint digests the hub's state with the history-shaped sections
spliced in from cached, already-encoded fragments, and a WAL record's
frame is assembled around its memoized payload encoding.  The plain
definitions they replaced live on here, and only here, as reference
functions; the fast paths must agree with them *exactly*:

* the digest, at every checkpoint any hub takes — seeded micro homes
  under every visibility model and plan strategy, with failure plans
  (detections, aborts, rollbacks), OCC retry storms, cancellations and
  runs cut short, and then through ``recover("replay")``,
  ``recover("policy")`` (aborting in-flight runs changes a cached
  fragment's key), ``salvage`` and ``migrate`` (a rebuilt controller
  must start from an empty cache);
* the frame, byte for byte, for generated payloads.
"""

import hashlib
import json
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core.controller import Canonical
from repro.hub.durability import DurabilityConfig
from repro.hub.durability.checkpoint import Checkpoint, state_digest
from repro.hub.durability.replay import build_home
from repro.hub.durability.storage import (KIND_RECORD, SegmentedWalWriter,
                                          canonical_json, encode_frame,
                                          list_segments, scan_wal_dir)
from repro.hub.durability.wal import WalRecord, jsonify
from repro.hub.safehome import SafeHome
from repro.workloads.micro import MicroParams, generate_microbenchmark

MODELS = ("wv", "gsv", "psv", "ev", "occ")
EXECUTIONS = ("serial", "parallel")
FSCK_FIXTURES = Path(__file__).parent / "fixtures" / "fsck"


# -- the plain definitions (reference only) ------------------------------------

def ref_jsonify(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [ref_jsonify(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(ref_jsonify(item) for item in value)
    if isinstance(value, dict):
        return {str(key): ref_jsonify(item) for key, item in value.items()}
    return repr(value)


def ref_canonical_json(payload):
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def ref_history_sections(controller):
    """The sections ``snapshot_state()`` returns pre-encoded, rebuilt
    from the controller's live objects the way they used to be."""
    sections = {
        "device_access_order": {k: list(v) for k, v in
                                controller.device_access_order.items()},
        "runs": [{
            "routine_id": run.routine_id,
            "name": run.name,
            "status": run.status.value,
            "next_index": run.next_index,
            "executions": len(run.executions),
            "inflight": run.inflight_count,
            "devices_done": sorted(run.devices_done),
        } for run in controller.runs],
        "plans": {run.routine_id: run.plan.snapshot()
                  for run in controller.runs if run.plan is not None},
    }
    if controller.model_name == "occ":
        sections["commit_log"] = [{
            "routine_id": record.routine_id,
            "commit_time": record.commit_time,
            "write_set": sorted(record.write_set),
        } for record in controller.commit_log]
        sections["retries_used"] = dict(controller.retries_used)
    return sections


def ref_state_digest(home, state):
    """sha256 over ``json.dumps(ref_jsonify(state), sort_keys=True)`` of
    the fully plain state: no ``Canonical`` anywhere, nothing cached."""
    controller = dict(state["controller"])
    plain = ref_history_sections(home.controller)
    encoded = {key for key, value in controller.items()
               if isinstance(value, Canonical)}
    assert encoded == set(plain), \
        f"pre-encoded sections {sorted(encoded)} need a reference"
    controller.update(plain)
    full = dict(state, controller=controller)
    canonical = json.dumps(ref_jsonify(full), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@contextmanager
def audited():
    """Every state any :class:`SafeHome` captures inside the block is
    digested both ways; yields the ``(fast, reference)`` pairs."""
    pairs = []
    capture = SafeHome._capture_state

    def capture_both(home):
        state = capture(home)
        pairs.append((state_digest(state), ref_state_digest(home, state)))
        return state

    with mock.patch.object(SafeHome, "_capture_state", capture_both):
        yield pairs


def assert_all_equal(pairs, at_least=1):
    assert len(pairs) >= at_least, \
        f"only {len(pairs)} checkpoints taken; the scenario is too small"
    for index, (fast, reference) in enumerate(pairs):
        assert fast == reference, f"checkpoint #{index} digest differs"


# -- scenarios -------------------------------------------------------------------

def micro_home(model, execution, seed, routines=24, devices=8,
               concurrency=4, failed_device_pct=25.0):
    """A small durable home, checkpointing every 8 observations, whose
    failed devices put detections, aborts and rollbacks in the log."""
    home = SafeHome(visibility=model, execution=execution, seed=seed,
                    detector_ping_period_s=5.0,
                    durability=DurabilityConfig(checkpoint_every=8))
    home.load_workload(generate_microbenchmark(
        MicroParams(routines=routines, concurrency=concurrency,
                    devices=devices, long_routine_pct=0.0,
                    failed_device_pct=failed_device_pct,
                    restart_after_s=40.0), seed=seed))
    return home


def crashed_home(crash_at, **spec):
    home = micro_home(**spec)
    home.crash(at=crash_at)
    home.run()
    assert home.crashed, "the home finished before its crash time"
    return home


def cancel_some(home):
    """Cancel up to three unfinished runs: two now, one a second on."""
    live = [run for run in home.controller.runs if not run.done]
    for run in live[:2]:
        home.cancel(run)
    for run in live[2:3]:
        home.cancel(run, at=home.sim.now + 1.0)


#: Every routine lasts >= 10 virtual seconds and a stream holds at
#: least two, so a home is still running at any of these.
cut_offs = st.sampled_from([1.0, 6.0, 12.0, 19.0])

home_specs = st.fixed_dictionaries({
    "model": st.sampled_from(MODELS),
    "execution": st.sampled_from(EXECUTIONS),
    "seed": st.integers(0, 10_000),
    "routines": st.sampled_from([8, 24]),
    "devices": st.sampled_from([2, 8]),       # 2: everything conflicts
    "concurrency": st.sampled_from([1, 4, 6]),
    "failed_device_pct": st.sampled_from([0.0, 25.0]),
})


class TestAgainstThePlainDefinition:
    @given(spec=home_specs, until=st.one_of(st.none(), cut_offs),
           cancel=st.booleans())
    def test_at_every_checkpoint(self, spec, until, cancel):
        """Whole runs and runs cut short, user cancellations, a forced
        checkpoint over whatever is in flight, then run on."""
        with audited() as pairs:
            home = micro_home(**spec)
            home.run(until=until)
            if cancel:
                cancel_some(home)
            home.durability.take_checkpoint()
            home.run()
            home.durability.take_checkpoint()   # all of history, at rest
        assert_all_equal(pairs, at_least=3)
        assert [c.digest for c in home.durability.checkpoints] == \
            [fast for fast, _reference in pairs]

    @given(spec=home_specs, crash_at=cut_offs,
           mode=st.sampled_from(["replay", "policy", "salvage"]))
    def test_through_recovery(self, spec, crash_at, mode):
        with audited() as pairs:
            home = crashed_home(crash_at, **spec)
            crashed_with = len(pairs)
            home.recover(mode=mode)
            home.durability.take_checkpoint()   # what recovery left live
            home.run()
        assert_all_equal(pairs, at_least=crashed_with + 1)

    @given(spec=home_specs, until=cut_offs, target=st.sampled_from(MODELS))
    def test_through_migration(self, spec, until, target):
        with audited() as pairs:
            home = micro_home(**spec)
            home.run(until=until)
            source = home.controller
            home.migrate(target)
            assert home.controller is not source
            home.run()
            home.durability.take_checkpoint()
        assert_all_equal(pairs, at_least=3)


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("model", MODELS)
def test_every_door_under_every_model_and_strategy(model, execution):
    """The draws above sample the grid; this walks all of it once."""
    spec = dict(model=model, execution=execution, seed=15)
    with audited() as pairs:
        for mode in ("replay", "policy", "salvage"):
            home = crashed_home(19.0, **spec)
            home.recover(mode=mode)
            home.run()
        cancel_some(home)
        home.migrate("ev" if model != "ev" else "psv")
        home.run()
        home.durability.take_checkpoint()
    assert_all_equal(pairs, at_least=50)


class TestInputsCoverTheHardCases:
    """The scenarios above are only worth their time if they reach the
    states that move a cached fragment's key."""

    def test_failures_give_detections_aborts_and_rollbacks(self):
        home = micro_home("psv", "serial", seed=15)
        result = home.run()
        assert result.detection_events
        assert any(run.rolled_back_commands for run in result.aborted)

    def test_occ_retry_storm_fills_the_commit_log_and_retries(self):
        with audited() as pairs:
            home = micro_home("occ", "parallel", seed=15, devices=2,
                              concurrency=6, failed_device_pct=0.0)
            home.run()
        controller = home.controller
        assert len(controller.retries_used) > 10
        assert len(controller.runs) > 24 and controller.commit_log
        # Retried routines get ids past 9: "10" sorts before "9".
        assert max(controller.retries_used) > 9
        assert_all_equal(pairs, at_least=20)

    def test_cut_off_home_is_checkpointed_with_commands_in_flight(self):
        home = micro_home("ev", "parallel", seed=15)
        home.run(until=12.0)
        assert any(run.inflight_count for run in home.controller.runs)
        assert any(run.plan is not None and not run.plan.all_done()
                   for run in home.controller.runs)

    def test_policy_recovery_aborts_a_run_replay_had_cached_running(self):
        with audited() as pairs:
            home = crashed_home(12.0, model="gsv", execution="serial",
                                seed=15)
            report = home.recover(mode="policy")
            home.durability.take_checkpoint()
        assert report.aborted
        assert_all_equal(pairs)

    def test_a_finished_plan_is_encoded_once(self):
        home = micro_home("psv", "parallel", seed=15)
        home.run()
        controller = home.controller
        finished = [run for run in controller.runs
                    if run.plan is not None and run.plan.all_done()]
        assert finished
        texts = {run.routine_id: controller._plan_fragments[run.routine_id]
                 for run in finished}
        home.durability.take_checkpoint()
        assert all(controller._plan_fragments[rid] is text
                   for rid, text in texts.items())


@pytest.mark.parametrize("name", ["torn-tail", "flipped-bit", "bad-seal"])
def test_fsck_goldens_salvage_to_reference_digests(name):
    """The committed damaged logs replay, under audit, to the digests
    they hold: ``salvage`` verifies each logged checkpoint against the
    regenerated one, and here each regenerated one against the
    reference."""
    scan = scan_wal_dir(str(FSCK_FIXTURES / name), strict=False)
    records = scan.records
    logged = [r.payload["digest"] for r in records if r.type == "checkpoint"]
    with audited() as pairs:
        twin = build_home(records)
        report = twin.salvage_records(records)
    assert_all_equal(pairs, at_least=len(logged))
    assert report.checkpoints_verified == len(logged)
    assert [fast for fast, _reference in pairs][:len(logged)] == logged


def test_a_state_without_canonical_digests_as_before():
    state = {"time": 1.5, "devices": {3: {"state": "ON", "up": True}},
             "controller": {"runs": [{"routine_id": 0}], "plans": {},
                            "pending_reconcile": {2: ("x", {1, 2})}}}
    reference = hashlib.sha256(json.dumps(
        ref_jsonify(state), sort_keys=True).encode("utf-8")).hexdigest()
    assert state_digest(state) == reference
    assert state_digest({}) == hashlib.sha256(b"{}").hexdigest()


def test_checkpoint_keeps_the_digest_not_the_state():
    home = micro_home("ev", "serial", seed=1)
    home.run()
    checkpoint = home.durability.checkpoints[-1]
    assert not hasattr(checkpoint, "state")
    assert [f for f in Checkpoint.__dataclass_fields__] == \
        ["seq", "time", "events_processed", "digest", "observed"]


def test_a_non_durable_home_never_fills_the_caches():
    home = SafeHome(visibility="occ", execution="parallel", seed=2)
    home.load_workload(generate_microbenchmark(
        MicroParams(routines=12, concurrency=4, devices=3), seed=2))
    home.run()
    controller = home.controller
    assert controller.runs and not controller._run_texts
    assert not controller._access_fragments
    assert not controller._plan_fragments
    assert not controller._commit_fragments


# -- the record frame --------------------------------------------------------------

class Opaque:
    """A custom device state: the log keeps its ``repr``."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"Opaque<{self.tag}>"


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False), st.text(max_size=12),
    st.builds(Opaque, st.text(max_size=6)))
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.sets(st.integers(-99, 99), max_size=4),
        st.frozensets(st.text(max_size=4), max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(0, 50)),
                        inner, max_size=4)),
    max_leaves=12)
_payloads = st.dictionaries(st.text(max_size=8), _values, max_size=5)
_times = st.one_of(st.integers(0, 10**6),
                   st.floats(min_value=0.0, max_value=1e9))


@given(payload=_payloads, time=_times, seq=st.integers(0, 2**31),
       type_=st.sampled_from(["invoked", "command-acked", "crash"]))
def test_frame_bytes_equal_the_whole_record_encoding(payload, time, seq,
                                                     type_):
    record = WalRecord(seq=seq, time=time, type=type_, payload=payload)
    whole = {"seq": seq, "time": time, "type": type_,
             "payload": ref_jsonify(payload)}
    assert record.to_dict() == whole
    expected = encode_frame(KIND_RECORD, ref_canonical_json(whole))
    assert canonical_json(whole) == ref_canonical_json(whole)
    with tempfile.TemporaryDirectory() as wal_dir:
        writer = SegmentedWalWriter(wal_dir, home="test:0")
        writer._next_seq = seq          # the segment header's base_seq
        writer.append(record)
        writer.close(write_final_seal=False)
        (segment,) = list_segments(wal_dir)
        data = (Path(wal_dir) / segment).read_bytes()
        assert data.endswith(expected)
    # The memo the frame was built from is what replay compares, and a
    # record read back from disk compares equal to the one written.
    assert record.canonical_payload() == \
        ref_canonical_json(whole["payload"]).decode("utf-8")
    logged = WalRecord.from_dict(json.loads(ref_canonical_json(whole)))
    assert logged.canonical_payload() == record.canonical_payload()


class IntState(int):
    """A scalar subclass: passes through, like the ints it extends."""


@given(value=st.one_of(_values, st.builds(IntState, st.integers(0, 9)),
                       st.lists(st.builds(Canonical, st.text(max_size=4)))))
def test_jsonify_equals_its_plain_definition(value):
    assert jsonify(value) == ref_jsonify(value)
    assert json.dumps(jsonify(value)) == json.dumps(ref_jsonify(value))
