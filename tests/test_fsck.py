"""repro fsck: golden corrupt fixtures, exit codes, typed-error
context pins, fleet-spool verification and the corruption-grid
property (zero silent divergences)."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import CorruptionError, RecoveryError, SafeHomeError
from repro.fleet.spool import (SpoolWriter, home_wal_record,
                               load_spooled_home, merge_spool)
from repro.hub.durability.faults import (FAULT_KINDS, build_durable_home,
                                         inject_fault,
                                         run_corruption_matrix)
from repro.hub.durability.fsck import REPORT_SCHEMA, fsck_path
from repro.hub.durability.replay import build_home
from repro.hub.durability.storage import scan_wal_dir

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "fsck"


def build_wal(tmp_path, model="ev", execution="serial", seed=3,
              checkpoint_every=8):
    wal_dir = str(tmp_path / "wal")
    os.makedirs(wal_dir)
    home = build_durable_home(model, execution, wal_dir, seed=seed,
                              checkpoint_every=checkpoint_every)
    return home, wal_dir


class TestGoldenFixtures:
    """The committed damaged logs must keep producing byte-exact
    reports (regenerate with scripts/gen_fsck_fixtures.py)."""

    @pytest.mark.parametrize("name", ["torn-tail", "flipped-bit",
                                      "bad-seal"])
    def test_fixture_report_is_byte_exact(self, name):
        fixture = FIXTURE_ROOT / name
        expected = json.loads((fixture / "expected.json").read_text())
        before = {p.name: p.read_bytes()
                  for p in fixture.glob("wal-*.seg")}
        report = fsck_path(str(fixture), salvage=True)
        assert json.dumps(report.to_dict(), sort_keys=True) == \
            json.dumps(expected["report"], sort_keys=True)
        # fsck is read-only: the fixture bytes must survive the pass.
        after = {p.name: p.read_bytes()
                 for p in fixture.glob("wal-*.seg")}
        assert before == after

    def test_fixture_statuses_cover_the_taxonomy(self):
        statuses = {}
        for name in ("torn-tail", "flipped-bit", "bad-seal"):
            expected = json.loads(
                (FIXTURE_ROOT / name / "expected.json").read_text())
            statuses[name] = (expected["report"]["status"],
                              expected["report"]["exit_code"])
        assert statuses["torn-tail"] == ("truncated", 0)
        assert statuses["flipped-bit"] == ("corrupt", 1)
        assert statuses["bad-seal"] == ("corrupt", 1)


class TestCliExitCodes:
    def test_clean_log_exits_zero(self, tmp_path, capsys):
        _home, wal_dir = build_wal(tmp_path)
        assert cli_main(["fsck", wal_dir]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["status"] == "clean" and doc["clean_close"]
        assert doc["verify"]["ok"] and doc["verify"]["oracle"]["ok"]

    def test_torn_tail_exits_zero(self, tmp_path, capsys):
        _home, wal_dir = build_wal(tmp_path)
        inject_fault(wal_dir, "torn-tail", seed=0)
        assert cli_main(["fsck", wal_dir]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "truncated"
        assert doc["truncated"]["bytes_dropped"] > 0

    def test_corruption_without_salvage_exits_two(self, tmp_path, capsys):
        _home, wal_dir = build_wal(tmp_path)
        inject_fault(wal_dir, "bit-flip", seed=1)
        assert cli_main(["fsck", wal_dir]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "corrupt"
        assert doc["salvage"] is None
        # The report carries the full damage context.
        assert doc["corruption"]["offset"] is not None
        assert doc["corruption"]["seq"] is not None

    def test_salvage_exits_one_when_oracle_clean(self, tmp_path, capsys):
        _home, wal_dir = build_wal(tmp_path)
        inject_fault(wal_dir, "bit-flip", seed=1)
        assert cli_main(["fsck", wal_dir, "--salvage"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["salvage"]["ok"]
        assert doc["salvage"]["oracle"]["ok"]

    def test_report_file_written(self, tmp_path):
        _home, wal_dir = build_wal(tmp_path)
        out = str(tmp_path / "report.json")
        assert cli_main(["fsck", wal_dir, "--report", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["schema"] == REPORT_SCHEMA

    def test_not_a_wal_dir_exits_two(self, tmp_path, capsys):
        assert cli_main(["fsck", str(tmp_path)]) == 2
        assert "neither WAL segments" in capsys.readouterr().err


class TestErrorContextPins:
    """Satellite: Corruption/Recovery errors always carry record seq,
    record type and byte offset."""

    def test_corruption_error_message_format(self, tmp_path):
        _home, wal_dir = build_wal(tmp_path)
        inject_fault(wal_dir, "duplicate-frame", seed=0)
        with pytest.raises(CorruptionError) as excinfo:
            scan_wal_dir(wal_dir)
        error = excinfo.value
        assert error.seq is not None
        assert error.record_type is not None
        assert error.offset is not None
        message = str(error)
        assert message.startswith("corrupt WAL: ")
        assert f"seq={error.seq}" in message
        assert f"type={error.record_type}" in message
        assert f"offset={error.offset}" in message

    def test_unknowable_fields_render_as_question_marks(self):
        error = CorruptionError("boom", path="x.seg")
        assert "seq=?" in str(error)
        assert "type=?" in str(error)
        assert "offset=?" in str(error)

    def test_recovery_error_names_seq_and_type(self, tmp_path):
        # Tamper a logged observation in memory: replay verification
        # must name the diverging record, not just "mismatch".
        home, wal_dir = build_wal(tmp_path)
        scan = scan_wal_dir(wal_dir)
        victim = next(r for r in scan.records if r.is_observation)
        victim.payload["tampered"] = True
        twin = build_home(scan.records)
        with pytest.raises(RecoveryError) as excinfo:
            twin.salvage_records(scan.records, bounded=False)
        message = str(excinfo.value)
        assert f"seq {victim.seq}" in message
        assert f"type {victim.type!r}" in message

    def test_checkpoint_mismatch_names_seq(self, tmp_path):
        home, wal_dir = build_wal(tmp_path)
        scan = scan_wal_dir(wal_dir)
        victim = next(r for r in scan.records if r.type == "checkpoint")
        victim.payload["digest"] = "0" * 16
        twin = build_home(scan.records)
        with pytest.raises(RecoveryError) as excinfo:
            twin.salvage_records(scan.records, bounded=False)
        message = str(excinfo.value)
        assert f"seq {victim.seq}" in message
        assert "type 'checkpoint'" in message


class TestFleetSpool:
    """Satellite: spool decode errors are typed, indexes are verified."""

    def spool(self, tmp_path, homes=2):
        wal_dir = str(tmp_path / "spool")
        os.makedirs(wal_dir)
        writer = SpoolWriter(wal_dir)
        for home_id in range(homes):
            home = build_durable_home("ev", "serial", None, seed=home_id,
                                      checkpoint_every=8)
            writer.write(home_wal_record(home_id, "chaos", home_id, home))
        writer.close()
        merge_spool(wal_dir, expected_homes=homes)
        return wal_dir

    def test_undecodable_spool_line_is_typed(self, tmp_path):
        wal_dir = str(tmp_path)
        path = os.path.join(wal_dir, "spool-1-1.seg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"home_id": 0}\n{"home_id": 1, "wal": [tru\n')
        with pytest.raises(CorruptionError) as excinfo:
            merge_spool(wal_dir)
        error = excinfo.value
        assert error.line == 2
        assert error.path == path
        assert "undecodable spool line" in str(error)
        assert "line=2" in str(error)

    def test_stale_index_overrun_detected(self, tmp_path):
        wal_dir = self.spool(tmp_path)
        merged = os.path.join(wal_dir, "fleet-wal.jsonl")
        with open(merged, "r+b") as handle:
            handle.truncate(os.path.getsize(merged) - 10)
        with pytest.raises(CorruptionError, match="overruns"):
            load_spooled_home(wal_dir, 1)

    def test_stale_index_wrong_home_detected(self, tmp_path):
        wal_dir = self.spool(tmp_path)
        index_path = os.path.join(wal_dir, "fleet-wal-index.json")
        doc = json.loads(Path(index_path).read_text())
        doc["index"]["0"], doc["index"]["1"] = \
            doc["index"]["1"], doc["index"]["0"]
        Path(index_path).write_text(json.dumps(doc))
        with pytest.raises(CorruptionError,
                           match="slice for home 0 holds home 1"):
            load_spooled_home(wal_dir, 0)

    def test_misaligned_slice_detected(self, tmp_path):
        wal_dir = self.spool(tmp_path)
        index_path = os.path.join(wal_dir, "fleet-wal-index.json")
        doc = json.loads(Path(index_path).read_text())
        doc["index"]["0"]["offset"] += 3  # no longer line-aligned
        doc["index"]["1"]["offset"] -= 3
        Path(index_path).write_text(json.dumps(doc))
        with pytest.raises(CorruptionError, match="not one whole line"):
            load_spooled_home(wal_dir, 0)

    def test_fleet_fsck_clean_and_corrupt(self, tmp_path, capsys):
        wal_dir = self.spool(tmp_path)
        assert cli_main(["fsck", wal_dir]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == "fleet"
        assert doc["fleet"]["verified_homes"] == 2
        merged = os.path.join(wal_dir, "fleet-wal.jsonl")
        with open(merged, "r+b") as handle:
            handle.truncate(os.path.getsize(merged) - 10)
        assert cli_main(["fsck", wal_dir]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "corrupt"
        assert doc["corruption"]["detail"].startswith("stale index")


class TestCorruptionGrid:
    """The headline property: every model x execution x fault kind
    either reconstructs byte-identical state or fails loudly into an
    oracle-clean salvage — never silently diverges."""

    def test_full_grid_zero_silent_divergences(self, tmp_path):
        matrix = run_corruption_matrix(base_dir=str(tmp_path))
        assert matrix["schema"] == "repro-fsck-matrix/1"
        assert len(matrix["models"]) >= 5
        assert matrix["executions"] == ["serial", "parallel"]
        assert list(matrix["kinds"]) == list(FAULT_KINDS)
        assert len(matrix["trials"]) == (len(matrix["models"])
                                         * 2 * len(FAULT_KINDS))
        assert matrix["silent_divergences"] == 0
        allowed = {"identical", "truncated", "salvaged", "loud-failure"}
        assert set(matrix["outcomes"]) <= allowed
        # Damage is actually being detected, not classified away:
        # every non-tail fault ends in a loud salvage.
        salvaged = [t for t in matrix["trials"]
                    if t["outcome"] == "salvaged"]
        assert len(salvaged) >= len(matrix["trials"]) // 2

    def test_torn_tail_is_always_crash_consistent(self, tmp_path):
        matrix = run_corruption_matrix(
            models=["ev", "gsv"], kinds=["torn-tail"],
            base_dir=str(tmp_path))
        assert matrix["silent_divergences"] == 0
        assert set(t["outcome"] for t in matrix["trials"]) <= \
            {"identical", "truncated"}


class TestDispatch:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(SafeHomeError, match="not a WAL directory"):
            fsck_path(str(tmp_path / "nope"))

    def test_merged_file_path_dispatches_to_fleet(self, tmp_path):
        wal_dir = TestFleetSpool().spool(tmp_path)
        report = fsck_path(os.path.join(wal_dir, "fleet-wal.jsonl"))
        assert report.target == "fleet"
        assert report.status == "clean"
