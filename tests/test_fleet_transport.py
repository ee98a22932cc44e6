"""WAL spooling, the worker clamp and CLI knobs (PR 7).

Covers worker-local WAL spooling (merge determinism, indexed loads,
verified replay equality, durable-fleet JSON byte-identity; since PR 19
the fleet log is a bundle of CRC-framed home log images), the
workers-exceed-chunks clamp and the ``--workers``/``--wal-dir`` flags.
"""

import json
import os
from pathlib import Path

import pytest

from repro.errors import CorruptionError, RecoveryError, SafeHomeError
from repro.fleet import FleetConfig, FleetEngine, run_fleet
from repro.fleet.pool import POOLS, SerialPool
from repro.fleet.spool import (INDEX_NAME, MERGED_NAME, SpoolWriter,
                               load_spooled_home, merge_spool,
                               replay_spooled_home)
from repro.hub.durability.fsck import fsck_path
from repro.hub.durability.storage import (FRAME, KIND_RECORD, KIND_SEAL,
                                          MAGIC, canonical_json,
                                          encode_frame, encode_log)


def reframe(block, edit):
    """A log image with every frame payload passed through ``edit(kind,
    doc)`` and framed again — tampering that keeps every CRC valid."""
    out = [MAGIC]
    offset = len(MAGIC)
    while offset < len(block):
        length, _crc, kind = FRAME.unpack_from(block, offset)
        body = offset + FRAME.size
        doc = json.loads(block[body:body + length])
        edit(kind, doc)
        out.append(encode_frame(kind, canonical_json(doc)))
        offset = body + length
    return b"".join(out)


def empty_block(home_id):
    return encode_log([], [], header_extra={
        "home_id": home_id, "scenario": "none", "seed": 0})


# -- worker-local WAL spooling -------------------------------------------------


class TestWalSpooling:
    CONFIG = dict(homes=4, seed=7, scenario="cooling", crashes=1)

    def run_spooled(self, tmp_path, name, **overrides):
        wal_dir = str(tmp_path / name)
        config = dict(self.CONFIG, wal_dir=wal_dir, **overrides)
        result = FleetEngine(FleetConfig(**config)).run()
        return result, wal_dir

    def test_durable_fleet_json_identical_with_and_without_spool(
            self, tmp_path):
        plain = FleetEngine(FleetConfig(**self.CONFIG)).run()
        spooled, _ = self.run_spooled(tmp_path, "wal")
        assert spooled.to_json(per_home=True) == \
            plain.to_json(per_home=True)

    def test_nondurable_fleet_json_unchanged_by_spooling(self, tmp_path):
        plain = run_fleet(4, seed=7, scenario="cooling")
        spooled, _ = self.run_spooled(tmp_path, "wal", crashes=0)
        assert spooled.to_json(per_home=True) == \
            plain.to_json(per_home=True)

    def test_merged_log_is_backend_and_layout_invariant(self, tmp_path):
        _, reference_dir = self.run_spooled(tmp_path, "serial")
        reference = ((tmp_path / "serial" / MERGED_NAME).read_bytes(),
                     (tmp_path / "serial" / INDEX_NAME).read_bytes())
        for name, overrides in (
                ("process", dict(backend="process", workers=2, chunk=2)),
                ("wide", dict(backend="process", workers=3, chunk=1)),
                ("wider", dict(backend="process", workers=4, chunk=1))):
            self.run_spooled(tmp_path, name, **overrides)
            assert (tmp_path / name / MERGED_NAME).read_bytes() \
                == reference[0]
            assert (tmp_path / name / INDEX_NAME).read_bytes() \
                == reference[1]

    def test_segments_are_merged_away(self, tmp_path):
        _, wal_dir = self.run_spooled(tmp_path, "wal",
                                      backend="process", workers=2)
        entries = sorted(os.listdir(wal_dir))
        assert entries == ["fleet-wal-index.json", "fleet-wal.segs"]

    def test_leftover_worker_file_is_refused_before_any_home_runs(
            self, tmp_path, monkeypatch):
        """Regression: a stale worker file made a durable fleet fail
        with a bare duplicate-ids ValueError *after* simulating every
        home, leaving this run's worker file un-merged."""
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        stale = wal_dir / "spool-999-1.seg"
        stale.write_bytes(empty_block(0))

        def no_pool(workers):
            raise AssertionError("a pool was spawned")

        monkeypatch.setitem(POOLS, "serial", no_pool)
        with pytest.raises(SafeHomeError, match="spool-999-1.seg"):
            FleetEngine(FleetConfig(homes=3, seed=1,
                                    wal_dir=str(wal_dir))).run()
        assert os.listdir(wal_dir) == ["spool-999-1.seg"]
        assert stale.read_bytes() == empty_block(0)

    def test_indexed_load_and_verified_replay(self, tmp_path):
        result, wal_dir = self.run_spooled(tmp_path, "wal",
                                           backend="process", workers=2)
        for row in result.rows:
            record = load_spooled_home(wal_dir, row["home_id"])
            assert record["home_id"] == row["home_id"]
            assert record["scenario"] == row["scenario"]
            assert record["seed"] == row["seed"]
            assert sorted(record) == ["home_id", "log", "scenario", "seed"]
            assert isinstance(record["log"], bytes)
            home = replay_spooled_home(record)
            report = home.report(check_final=True)
            assert report.routines == row["routines"]
            assert report.committed == row["committed"]
            assert report.aborted == row["aborted"]
            assert report.final_congruent == row["final_congruent"]
            assert home._last_result.makespan == row["makespan"]

    @pytest.mark.parametrize("victim", ["checkpoint-digest",
                                        "observation-payload"])
    def test_tampered_spool_image_is_caught(self, tmp_path, victim):
        """Tampering that keeps the container whole (same length, every
        frame framed again with a valid CRC, index still consistent)
        loads — and is caught by the replay verifier, in
        ``replay_spooled_home`` and in fsck alike.  (Without the new
        CRCs it does not even load; the fleet-flipped-bit fixture in
        tests/test_fsck.py pins that.)"""
        _, wal_dir = self.run_spooled(tmp_path, "wal")
        record = load_spooled_home(wal_dir, 0)
        named = {}

        def edit(kind, doc):
            if victim == "checkpoint-digest":
                # Both places digest 0 occurs: its seal frame and the
                # in-log checkpoint record.
                holder = doc if kind == KIND_SEAL else \
                    doc["payload"] if doc.get("type") == "checkpoint" \
                    else {}
                if holder.get("index") == 0 and holder.get("digest"):
                    digest = holder["digest"]
                    holder["digest"] = \
                        ("0" if digest[0] != "0" else "1") + digest[1:]
                    if kind == KIND_RECORD:
                        named.update(doc)
            elif doc.get("type") == "invoked" and "edited" not in named:
                # No observation is kept to tamper with; an input the
                # observations depend on is.  Same length: another
                # digit in the first command's duration.
                command = doc["payload"]["spec"]["commands"][0]
                text = repr(command["durationSec"])
                point = text.index(".") + 1
                command["durationSec"] = next(
                    value for value in (
                        float(text[:point] + digit + text[point + 1:])
                        for digit in "123456789")
                    if value != command["durationSec"]
                    and len(repr(value)) == len(text))
                named["edited"] = True
            elif doc.get("type") == "checkpoint" and "seq" not in named:
                # ... and the first seal after it is where replay sees
                # the observation stream differ.
                named.update(doc)

        tampered_log = reframe(record["log"], edit)
        assert named and tampered_log != record["log"]
        assert len(tampered_log) == len(record["log"])
        merged = Path(wal_dir) / MERGED_NAME
        data = merged.read_bytes()
        assert data.startswith(record["log"])       # home 0 comes first
        merged.write_bytes(tampered_log + data[len(tampered_log):])
        tampered = load_spooled_home(wal_dir, 0)    # the container is whole
        assert tampered["log"] == tampered_log
        with pytest.raises(RecoveryError) as excinfo:
            replay_spooled_home(tampered)
        assert f"seq {named['seq']}" in str(excinfo.value)
        assert f"type {named['type']!r}" in str(excinfo.value)
        if victim == "observation-payload":
            assert "the observations of checkpoint interval 0 differ" \
                in str(excinfo.value)
        report = fsck_path(wal_dir)
        assert report.exit_code() == 2 and list(report.homes) == [0]
        assert report.homes[0].status == "clean"
        assert not report.homes[0].verify["ok"]

    def test_spool_without_home_created_is_typed_corruption(self):
        with pytest.raises(CorruptionError, match="home-created"):
            replay_spooled_home({"home_id": 0, "log": empty_block(0)})

    def test_load_unknown_home_raises(self, tmp_path):
        _, wal_dir = self.run_spooled(tmp_path, "wal")
        with pytest.raises(KeyError):
            load_spooled_home(wal_dir, 999)

    def test_merge_rejects_duplicate_home_ids(self, tmp_path):
        wal_dir = str(tmp_path / "dup")
        os.makedirs(wal_dir)
        writer = SpoolWriter(wal_dir)
        writer.write(empty_block(0))
        writer.write(empty_block(0))
        writer.close()
        with pytest.raises(ValueError, match="duplicate"):
            merge_spool(wal_dir)

    def test_merge_rejects_missing_homes(self, tmp_path):
        wal_dir = str(tmp_path / "short")
        os.makedirs(wal_dir)
        writer = SpoolWriter(wal_dir)
        writer.write(empty_block(0))
        writer.close()
        with pytest.raises(ValueError, match="cover 1 homes"):
            merge_spool(wal_dir, expected_homes=2)


# -- workers > chunks clamp ----------------------------------------------------


class TestWorkerClamp:
    def test_pool_never_gets_more_workers_than_chunks(self, monkeypatch):
        seen = {}

        class RecordingPool(SerialPool):
            def __init__(self, workers):
                super().__init__(workers)
                seen["workers"] = workers

        monkeypatch.setitem(POOLS, "serial", RecordingPool)
        result = FleetEngine(FleetConfig(homes=3, workers=8)).run()
        assert len(result.rows) == 3
        # 3 homes → ceil(3/3)=1-home chunks at most 3 chunks; the pool
        # must not be built wider than the chunk plan.
        assert seen["workers"] <= 3

    def test_more_workers_than_homes_still_correct(self):
        reference = run_fleet(3, seed=2).to_json(per_home=True)
        for backend in ("serial", "process"):
            wide = run_fleet(3, seed=2, backend=backend,
                             workers=8).to_json(per_home=True)
            assert wide == reference, backend

    def test_empty_chunks_never_planned(self):
        from repro.fleet import plan_chunks

        for chunk_size in (1, 2, 3, 5, 99):
            chunks = plan_chunks([(i, "cooling", i) for i in range(5)],
                                 chunk_size)
            assert all(chunks), chunks


# -- CLI knobs -----------------------------------------------------------------


class TestCliKnobs:
    def test_workers_auto(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--homes", "2", "--workers", "auto"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate"]["homes"] == 2

    def test_workers_junk_rejected(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--homes", "2", "--workers", "many"]) == 2
        assert "auto" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--transport", "shm"),
                                             ("--pin", "spread")])
    def test_removed_flags_are_rejected_by_the_parser(self, flag, value,
                                                      capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", "--homes", "2", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_wal_dir_flag_spools(self, tmp_path, capsys):
        from repro.cli import main

        wal_dir = str(tmp_path / "wal")
        assert main(["fleet", "--homes", "2", "--crashes", "1",
                     "--wal-dir", wal_dir]) == 0
        assert sorted(os.listdir(wal_dir)) == \
            ["fleet-wal-index.json", "fleet-wal.segs"]
