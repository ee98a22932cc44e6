"""Differential tests for the observation fold.

A durable hub journals what replay cannot re-derive — inputs, markers,
checkpoints — and folds every observation into a rolling SHA-256 that
is sealed, beside a count, at every checkpoint, ``crash`` marker and
clean close.  What that replaced lives on here, and only here, as the
reference: a WAL that materializes every observation as a record
(:class:`RecordingWal`) and the record-by-record verifier
(:func:`ref_verify`).  Pinned against them:

* (a) the digest and count depend on the observations and their order
  only, never on where ``flush()``, a ``records`` read or an input
  append fell among them;
* (b) seeded homes under every model and plan strategy checkpoint on
  the same events, at the same times, to the same state digests as the
  reference run; count what it counted; and a crashed-and-recovered
  home ends on the digest of its uninterrupted twin — exactly where the
  reference finds the two record streams equal;
* (c) tampering that re-makes every CRC — an input payload, a
  checkpoint's seal, a ``crash`` marker's seal, the final seal's count
  — is a :class:`RecoveryError` naming the interval, at every door;
* (d) a segment of the old schema is refused with the typed error;
* (e) the in-memory log stays a few per cent of the journal.
"""

import hashlib
import os
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core.visibility import VisibilityModel
from repro.errors import CorruptionError, RecoveryError
from repro.fleet.spool import home_wal_record, replay_spooled_home
from repro.hub.durability import DurabilityConfig, recovery
from repro.hub.durability.fsck import fsck_home_dir
from repro.hub.durability.storage import (KIND_HEADER, KIND_RECORD,
                                          KIND_SEAL, scan_wal_dir,
                                          segment_name)
from repro.hub.durability.wal import (OBSERVATION_TYPES, WalRecord,
                                      WriteAheadLog, encode_compact,
                                      jsonify)
from repro.hub.safehome import SafeHome
from repro.workloads.micro import MicroParams, generate_microbenchmark
from tests.test_fleet_transport import reframe

MODELS = tuple(model.value for model in VisibilityModel)
EXECUTIONS = ("serial", "parallel")


# -- the reference: every observation a record, verified one by one -------------

class RecordingWal(WriteAheadLog):
    """The WAL as it was: ``stream`` holds every journal entry — input,
    marker, observation — as a record, in order, sequence-numbered the
    way the old log numbered them.  (The shipped fold still runs
    underneath; nothing here reads it.)"""

    def __init__(self):
        super().__init__()
        self.stream = []

    def _record(self, type_, time, payload):
        self.stream.append(WalRecord(seq=len(self.stream), time=time,
                                     type=type_, payload=payload))

    def flush(self):
        for type_, time, payload in self._pending:
            self._record(type_, time, payload)
        return super().flush()

    def _materialize(self, record):
        if record.type != "checkpoint":     # flush() already has it
            self._record(record.type, record.time, record.payload)
        return super()._materialize(record)


def observation_records(stream):
    return [r for r in stream if r.type in OBSERVATION_TYPES]


def ref_verify(old_stream, new_stream):
    """Record by record: every logged observation must equal the one
    replay regenerated at the same stream position.  Returns the number
    compared; raises naming the first record that differs."""
    old_obs = observation_records(old_stream)
    new_obs = observation_records(new_stream)
    if len(new_obs) < len(old_obs):
        raise RecoveryError(
            f"replay regenerated {len(new_obs)} observation records, the "
            f"log holds {len(old_obs)}")
    for index, old in enumerate(old_obs):
        new = new_obs[index]
        if old.identity() != new.identity():
            raise RecoveryError(
                f"observation #{index} (seq {old.seq}, type {old.type!r}) "
                f"differs: logged {old.identity()}, replayed "
                f"{new.identity()}")
    return len(old_obs)


def ref_digest(entries):
    """The fold, one entry at a time through the plain encoder."""
    digest = hashlib.sha256()
    for type_, payload, time in entries:
        digest.update((encode_compact(jsonify([type_, time, payload]))
                       + ",").encode("utf-8"))
    return digest.hexdigest()


def recording():
    return mock.patch.object(recovery, "WriteAheadLog", RecordingWal)


# -- (a) flush points ------------------------------------------------------------

class Opaque:
    def __repr__(self):
        return "<opaque>"


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.just(Opaque()))
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.sets(st.integers(-99, 99), max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8)
_observations = st.tuples(
    st.sampled_from(sorted(OBSERVATION_TYPES)),
    st.dictionaries(st.text(max_size=6), _values, max_size=4),
    st.floats(min_value=0.0, max_value=1e6))
_ops = st.lists(st.one_of(
    _observations.map(lambda entry: ("observe", entry)),
    st.sampled_from([("flush", None), ("read", None), ("seal", None),
                     ("input", None)])), max_size=30)


@given(ops=_ops)
def test_digest_and_count_ignore_where_the_flushes_fall(ops):
    entries = [entry for op, entry in ops if op == "observe"]
    plain = WriteAheadLog()
    for entry in entries:
        plain.buffer_observation(*entry)

    wal = WriteAheadLog()
    inputs = 0
    for op, entry in ops:
        if op == "observe":
            wal.buffer_observation(*entry)
        elif op == "flush":
            wal.flush()
        elif op == "read":
            wal.records
        elif op == "seal":
            wal.observed()
        else:
            wal.append("cancelled", {"routine_id": inputs}, 0.0)
            inputs += 1
    assert wal.observed() == plain.observed() == {
        "obs_digest": ref_digest(entries), "observations": len(entries)}
    # Only checkpoints became records, where they were emitted.
    assert [r.type for r in wal.records if r.type != "cancelled"] == \
        ["checkpoint"] * sum(e[0] == "checkpoint" for e in entries)
    assert [r.seq for r in wal.records] == list(range(len(wal.records)))


# -- (b) seeded homes against the reference run ------------------------------------

def micro_home(model, execution, wal_dir=None, seed=15,
               checkpoint_every=8):
    """A small durable home whose failed devices put detections, aborts
    and rollbacks among the observations."""
    home = SafeHome(visibility=model, execution=execution, seed=seed,
                    detector_ping_period_s=5.0, wal_dir=wal_dir,
                    durability=DurabilityConfig(
                        checkpoint_every=checkpoint_every))
    home.load_workload(generate_microbenchmark(
        MicroParams(routines=24, concurrency=4, devices=8,
                    long_routine_pct=0.0, failed_device_pct=25.0,
                    restart_after_s=40.0), seed=seed))
    return home


def checkpoint_rows(home):
    return [(c.events_processed, c.time, c.digest)
            for c in home.durability.checkpoints]


def sealed(home):
    return home.wal.observed()


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("model", MODELS)
def test_homes_match_the_reference_run(model, execution):
    with recording():
        reference = micro_home(model, execution)
        reference.run()
    shipped = micro_home(model, execution)
    shipped.run()
    assert len(shipped.durability.checkpoints) >= 5
    assert checkpoint_rows(shipped) == checkpoint_rows(reference)
    logged = observation_records(reference.wal.stream)
    assert shipped.wal.observed() == {
        "observations": len(logged),
        "obs_digest": ref_digest((r.type, r.payload, r.time)
                                 for r in logged)}
    # Every checkpoint seals the observations the old log held below it.
    for checkpoint, record in zip(
            shipped.durability.checkpoints,
            (r for r in reference.wal.stream if r.type == "checkpoint")):
        below = observation_records(reference.wal.stream[:record.seq])
        assert checkpoint.observed == {
            "observations": len(below),
            "obs_digest": ref_digest((r.type, r.payload, r.time)
                                     for r in below)}

    # Crash, recover, run on: the recovered home ends on its
    # uninterrupted twin's seal — where the reference, record by record,
    # finds the twin's whole observation stream regenerated.
    crash_after = shipped.sim.events_processed // 2
    for mode in ("replay", "policy"):
        with recording():
            recovered = micro_home(model, execution)
            recovered.crash(after_events=crash_after)
            recovered.run()
            assert recovered.crashed
            before_crash = list(recovered.wal.stream)
            report = recovered.recover(mode=mode)
            assert ref_verify(before_crash, recovered.wal.stream) == \
                report.replayed_records
            recovered.run()
        if mode == "replay" or not report.aborted:
            assert sealed(recovered) == sealed(shipped)
            assert ref_verify(reference.wal.stream,
                              recovered.wal.stream) == len(logged)
            assert checkpoint_rows(recovered) == checkpoint_rows(shipped)


def test_a_diverging_replay_is_located_where_the_reference_finds_it():
    """An input tampered in the crashed hub's in-memory log: the
    reference names the first observation record that differs, the
    shipped verifier the checkpoint interval that holds it."""
    with recording():
        home = micro_home("ev", "serial", checkpoint_every=64)
        home.crash(after_events=150)
        home.run()
        logged = list(home.wal.stream)
        streams = next(r for r in home.wal.records
                       if r.type == "streams-attached")
        streams.payload["streams"][0][0]["commands"][0]["durationSec"] += 1.0
        with pytest.raises(RecoveryError) as excinfo:
            home.recover()
        assert home.crashed             # retryable, old log intact
        # Replay without the verifier, to see what it regenerated.
        with mock.patch("repro.hub.durability.replay._verify",
                        lambda *args: (0, 0)):
            home.recover()
    with pytest.raises(RecoveryError) as reference:
        ref_verify(logged, home.wal.stream)
    old_seq = int(str(reference.value).split("(seq ")[1].split(",")[0])
    checkpoints = [r for r in logged if r.type == "checkpoint"]
    interval = next(i for i, r in enumerate(checkpoints)
                    if r.seq > old_seq)
    assert f"the observations of checkpoint interval {interval} differ" \
        in str(excinfo.value)
    # As many observations on both sides; it is the digest that moved.
    seals = str(excinfo.value).split("): ")[1]
    assert seals.startswith("the log seals 66 observations (")
    assert "), replay regenerated 66 (" in seals


# -- (c) tampering with re-made CRCs, at every door ----------------------------------

def closed_crashed_home(tmp_path):
    """Crash, recover, run on, close: a log with checkpoints on both
    sides of a ``crash`` marker and a final seal."""
    wal_dir = str(tmp_path / "wal")
    home = micro_home("ev", "serial", wal_dir=wal_dir)
    home.crash(after_events=60)
    home.run()
    home.recover()
    home.run()
    home.close_wal()
    assert [r.type for r in home.wal.records].count("checkpoint") > 8
    return home, wal_dir


def bump(holder):
    holder["observations"] += 1


def rehash(holder):
    digest = holder["obs_digest"]
    holder["obs_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]


def tamper(victim):
    """``edit(kind, doc)`` for :func:`reframe` (and, given a record's
    dict form, for an in-memory record) and the words the error must
    hold."""
    def edit(kind, doc):
        payload = doc.get("payload", {})
        if victim == "input" and doc.get("type") == "streams-attached":
            payload["streams"][0][0]["commands"][0]["durationSec"] += 1.0
        elif victim == "checkpoint-seal" and 3 in (
                doc.get("index") if kind == KIND_SEAL and not doc["final"]
                else None,
                payload.get("index") if doc.get("type") == "checkpoint"
                else None):
            # Both places it is written: the seal frame and the record.
            rehash(doc if kind == KIND_SEAL else payload)
        elif victim == "crash-marker" and doc.get("type") == "crash":
            bump(payload)
        elif victim == "final-seal" and kind == KIND_SEAL and doc["final"]:
            bump(doc)
    return edit, {
        # Checkpointing every 8 observations, the first checkpoint is
        # taken while the tampered command is still running: the state
        # holds its duration before any observation does.
        "input": "checkpoint 0 digest mismatch",
        "checkpoint-seal": "the observations of checkpoint interval 3 differ",
        "crash-marker": "the observations of the interval up to the crash "
                        "differ",
        "final-seal": "the observations after the last checkpoint or crash "
                      "marker differ",
    }[victim]


VICTIMS = ("input", "checkpoint-seal", "crash-marker", "final-seal")


@pytest.mark.parametrize("victim", VICTIMS)
def test_tampering_is_caught_by_fsck_and_by_spooled_replay(tmp_path, victim):
    home, wal_dir = closed_crashed_home(tmp_path)
    edit, words = tamper(victim)
    path = os.path.join(wal_dir, segment_name(0))
    with open(path, "rb") as handle:
        pristine = handle.read()
    with open(path, "wb") as handle:
        handle.write(reframe(pristine, edit))

    scan = scan_wal_dir(wal_dir)            # every CRC and seal agrees
    assert scan.status == "clean" and scan.clean_close
    report = fsck_home_dir(wal_dir)
    assert report.exit_code() == 2 and not report.verify["ok"]
    assert words in report.verify["error"]
    assert "(seq " in report.verify["error"] or victim == "final-seal"
    assert "events " in report.verify["error"]

    image = home_wal_record(0, "micro", 15, home)
    assert replay_spooled_home({"log": image}).sim.events_processed == \
        home.sim.events_processed
    with pytest.raises(RecoveryError, match=words):
        replay_spooled_home({"log": reframe(image, edit)})


@pytest.mark.parametrize("victim", VICTIMS[:3])
def test_tampering_is_caught_by_recover(victim):
    """The in-memory door: the second crash's recovery replays through
    the first crash marker (``recover`` takes the closing seal from the
    live manager, so there is no final seal to tamper with)."""
    home = micro_home("ev", "serial")
    for point in (60, 140):
        home.crash(after_events=point)
        home.run()
        assert home.crashed
        if point == 60:
            home.recover()
    edit, words = tamper(victim)
    crashes = 0
    for record in home.wal.records:
        if record.type == "crash":
            crashes += 1
            if crashes == 2:
                continue        # tamper with the first marker only
        edit(KIND_RECORD, {"type": record.type, "payload": record.payload})
    with pytest.raises(RecoveryError, match=words):
        home.recover()
    assert home.crashed


def test_an_untampered_log_passes_every_door(tmp_path):
    home, wal_dir = closed_crashed_home(tmp_path)
    report = fsck_home_dir(wal_dir)
    assert report.exit_code() == 0 and report.verify["ok"]
    row = report.verify["row"]
    assert row["replayed_records"] == home.wal.observation_count
    assert row["checkpoints_verified"] == len(home.durability.checkpoints)


# -- (d) the schema break ---------------------------------------------------------------

def test_an_old_schema_segment_is_refused_with_the_typed_error(tmp_path):
    _home, wal_dir = closed_crashed_home(tmp_path)
    path = os.path.join(wal_dir, segment_name(0))

    def old_header(kind, doc):
        if kind == KIND_HEADER:
            doc.update(schema="repro-wal-seg/1", version=1)

    with open(path, "rb") as handle:
        pristine = handle.read()
    with open(path, "wb") as handle:
        handle.write(reframe(pristine, old_header))
    with pytest.raises(CorruptionError,
                       match="unsupported segment schema 'repro-wal-seg/1'"):
        scan_wal_dir(wal_dir)
    report = fsck_home_dir(wal_dir, salvage=True)
    assert report.status == "corrupt" and report.exit_code() == 2


# -- (e) what stays in memory --------------------------------------------------------------

def test_a_long_home_keeps_a_few_per_cent_of_its_journal_in_memory():
    home = SafeHome(visibility="ev", seed=42, durability=True)
    home.load_workload(generate_microbenchmark(
        MicroParams(routines=400, concurrency=4), seed=42))
    home.run()
    records = home.wal.records
    checkpoints = sum(r.type == "checkpoint" for r in records)
    assert checkpoints == len(home.durability.checkpoints) > 100
    entries = len(records) + home.wal.observation_count - checkpoints
    assert len(records) < 0.03 * entries
    assert {r.type for r in records} & OBSERVATION_TYPES == {"checkpoint"}
