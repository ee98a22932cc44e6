"""repro fsck: golden corrupt fixtures, exit codes, typed-error
context pins, fleet-spool verification (a fleet log is a bundle of home
logs, checked by the home pipeline) and the corruption-grid property
(zero silent divergences), home logs and fleet logs alike."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.visibility import VisibilityModel
from repro.errors import CorruptionError, RecoveryError, SafeHomeError
from repro.fleet import FleetConfig, FleetEngine
from repro.fleet.spool import (INDEX_NAME, MERGED_NAME, SpoolWriter,
                               home_wal_record, load_spooled_home,
                               merge_spool, replay_spooled_home)
from repro.hub.durability.faults import (FAULT_KINDS, baseline_state,
                                         inject_fault, inject_fleet_fault,
                                         run_corruption_matrix)
from repro.hub.durability.fsck import (REPORT_SCHEMA, fsck_home_dir,
                                       fsck_path)
from repro.hub.durability.replay import build_home
from repro.hub.durability.storage import scan_wal_dir
from repro.workloads.chaos import chaos_home

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "fsck"


def finished_home(seed, wal_dir=None, model="ev", execution="serial",
                  checkpoint_every=8):
    """A durable chaos home run to completion, its log closed."""
    home = chaos_home(model, execution, seed, checkpoint_every,
                      wal_dir=wal_dir)
    home.run()
    home.close_wal()
    return home


def build_wal(tmp_path, model="ev", execution="serial", seed=3,
              checkpoint_every=8):
    wal_dir = str(tmp_path / "wal")
    os.makedirs(wal_dir)
    home = finished_home(seed, wal_dir, model, execution, checkpoint_every)
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

    def test_fleet_fixture_reports_are_byte_exact(self):
        """The closed hole, pinned: one flipped bit inside a record
        payload of a merged fleet log.  The JSONL container fsck'd this
        as ``clean``, exit 0."""
        fixture = FIXTURE_ROOT / "fleet-flipped-bit"
        expected = json.loads((fixture / "expected.json").read_text())
        before = {p.name: p.read_bytes() for p in fixture.iterdir()}
        plain = fsck_path(str(fixture))
        salvaged = fsck_path(str(fixture), salvage=True)
        assert json.dumps(plain.to_dict(), sort_keys=True) == \
            json.dumps(expected["report"], sort_keys=True)
        assert json.dumps(salvaged.to_dict(), sort_keys=True) == \
            json.dumps(expected["report_salvage"], sort_keys=True)
        assert (plain.status, plain.exit_code()) == ("corrupt", 2)
        assert (salvaged.status, salvaged.exit_code()) == ("corrupt", 1)
        victim = expected["injection"]["home_id"]
        assert list(salvaged.homes) == [victim]
        assert salvaged.homes[victim].salvage["oracle"]["ok"]
        assert expected["report"]["homes"][str(victim)]["corruption"][
            "detail"] == "crc mismatch in record frame"
        assert before == {p.name: p.read_bytes() for p in fixture.iterdir()}

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
        # Tamper a logged observation seal in memory: replay
        # verification must name the diverging interval — checkpoint
        # index, seq, type, event range, both counts — not just
        # "mismatch".
        home, wal_dir = build_wal(tmp_path)
        scan = scan_wal_dir(wal_dir)
        first, victim = [r for r in scan.records
                         if r.type == "checkpoint"][:2]
        victim.payload["observations"] += 1
        twin = build_home(scan.records)
        with pytest.raises(RecoveryError) as excinfo:
            twin.salvage_records(scan.records, bounded=False)
        message = str(excinfo.value)
        assert "the observations of checkpoint interval 1 differ" in message
        assert f"seq {victim.seq}" in message
        assert f"type {victim.type!r}" in message
        assert (f"events {first.payload['events']}.."
                f"{victim.payload['events']}") in message
        digest = victim.payload["obs_digest"][:12]
        assert (f"seals {victim.payload['observations']} observations "
                f"({digest}), replay regenerated "
                f"{victim.payload['observations'] - 1} ({digest})") in message

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
    """A fleet log is a bundle of home logs: container damage is typed
    with path and offset, indexes are verified, and fsck runs every
    home's slice through the home pipeline."""

    def spool(self, tmp_path, homes=2):
        wal_dir = str(tmp_path / "spool")
        os.makedirs(wal_dir)
        writer = SpoolWriter(wal_dir)
        self.baselines = []
        for home_id in range(homes):
            home = finished_home(home_id)
            self.baselines.append(baseline_state(home))
            writer.write(home_wal_record(home_id, "chaos", home_id, home))
        writer.close()
        merge_spool(wal_dir, expected_homes=homes)
        return wal_dir

    def index(self, wal_dir):
        path = Path(wal_dir) / INDEX_NAME
        return path, json.loads(path.read_text())

    def test_undecodable_spool_image_is_typed(self, tmp_path):
        """An undecodable worker file: a worker that died mid-write,
        or a foreign file."""
        wal_dir = str(tmp_path)
        home = finished_home(0)
        block = home_wal_record(0, "chaos", 0, home)
        path = os.path.join(wal_dir, "spool-1-1.seg")
        Path(path).write_bytes(block + block[:-10])
        with pytest.raises(CorruptionError) as excinfo:
            merge_spool(wal_dir)
        error = excinfo.value
        assert error.path == path
        assert len(block) < error.offset < 2 * len(block) - 10
        assert "torn frame or crc mismatch" in str(error)
        assert f"offset={error.offset}" in str(error)
        Path(path).write_bytes(b'{"home_id": 0, "wal": []}\n')
        with pytest.raises(CorruptionError, match="not a whole log image") \
                as excinfo:
            merge_spool(wal_dir)
        assert (excinfo.value.path, excinfo.value.offset) == (path, 0)

    def test_stale_index_overrun_detected(self, tmp_path):
        wal_dir = self.spool(tmp_path)
        merged = os.path.join(wal_dir, MERGED_NAME)
        with open(merged, "r+b") as handle:
            handle.truncate(os.path.getsize(merged) - 10)
        with pytest.raises(CorruptionError, match="overruns") as excinfo:
            load_spooled_home(wal_dir, 1)
        _, doc = self.index(wal_dir)
        assert excinfo.value.path == merged
        assert excinfo.value.offset == doc["index"]["1"]["offset"]

    def test_stale_index_wrong_home_detected(self, tmp_path):
        wal_dir = self.spool(tmp_path)
        index_path, doc = self.index(wal_dir)
        doc["index"]["0"], doc["index"]["1"] = \
            doc["index"]["1"], doc["index"]["0"]
        index_path.write_text(json.dumps(doc))
        with pytest.raises(CorruptionError,
                           match="slice for home 0 holds") as excinfo:
            load_spooled_home(wal_dir, 0)
        assert excinfo.value.offset == doc["index"]["0"]["offset"]
        report = fsck_path(wal_dir)
        assert report.exit_code() == 2 and sorted(report.homes) == [0, 1]
        assert report.homes[0].corruption["detail"] == \
            "stale index: slice for home 0 holds home 1"

    def test_misaligned_slice_detected(self, tmp_path):
        wal_dir = self.spool(tmp_path)
        index_path, doc = self.index(wal_dir)
        doc["index"]["0"]["offset"] += 3  # no longer on an image boundary
        doc["index"]["1"]["offset"] -= 3
        index_path.write_text(json.dumps(doc))
        for home_id in (0, 1):
            with pytest.raises(CorruptionError) as excinfo:
                load_spooled_home(wal_dir, home_id)
            assert excinfo.value.path.endswith(MERGED_NAME)
            assert excinfo.value.offset is not None
        assert fsck_path(wal_dir).exit_code() == 2

    def test_old_index_schema_is_refused(self, tmp_path):
        """The clean break: a directory written before the one-format
        change fails on its index schema instead of being misread."""
        wal_dir = self.spool(tmp_path)
        index_path, doc = self.index(wal_dir)
        doc["schema"] = "repro-fleet-wal-index/1"
        index_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unexpected index schema"):
            load_spooled_home(wal_dir, 0)
        assert cli_main(["fsck", wal_dir]) == 2

    @pytest.mark.parametrize("tamper", [
        lambda doc: doc["index"]["0"].update(offset="0"),
        lambda doc: doc.pop("index"),
        lambda doc: doc["index"]["1"].update(offset=-1),
        lambda doc: doc["index"].update({"01": doc["index"].pop("1")}),
    ], ids=["string-offset", "no-index", "negative-offset",
            "non-canonical-key"])
    def test_malformed_index_is_refused(self, tmp_path, capsys, tamper):
        """A hand-edited index is the typed refusal a foreign schema
        is: exit 2 with one ``repro:`` line, not a traceback."""
        wal_dir = self.spool(tmp_path)
        index_path, doc = self.index(wal_dir)
        tamper(doc)
        index_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["fsck", wal_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: malformed fleet index")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_fleet_fsck_clean_and_corrupt(self, tmp_path, capsys):
        wal_dir = self.spool(tmp_path)
        assert cli_main(["fsck", wal_dir]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == "fleet"
        assert doc["fleet"]["clean_homes"] == doc["fleet"]["homes"] == 2
        assert doc["homes"] == {}
        merged = os.path.join(wal_dir, MERGED_NAME)
        with open(merged, "r+b") as handle:
            handle.truncate(os.path.getsize(merged) - 10)
        assert cli_main(["fsck", wal_dir]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "corrupt"
        assert list(doc["homes"]) == ["1"]
        assert doc["homes"]["1"]["corruption"]["detail"].startswith(
            "stale index")

    def test_salvage_applies_per_damaged_home(self, tmp_path, capsys):
        """The flip the JSONL container let through: plain fsck exits 2,
        --salvage exits 1 with an oracle-clean home, the other homes
        stay clean — the home report shape, per home."""
        wal_dir = self.spool(tmp_path, homes=3)
        injection = inject_fleet_fault(wal_dir, 1, "bit-flip", seed=1)
        assert injection["home_id"] == 1
        assert cli_main(["fsck", wal_dir]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["homes"]) == ["1"]
        assert doc["homes"]["1"]["salvage"] is None
        assert doc["fleet"]["clean_homes"] == 2
        assert cli_main(["fsck", wal_dir, "--salvage"]) == 1
        doc = json.loads(capsys.readouterr().out)
        home = doc["homes"]["1"]
        assert home["status"] == "corrupt" and home["exit_code"] == 1
        assert home["salvage"]["ok"] and home["salvage"]["oracle"]["ok"]
        # Exactly the home shape: what fsck says about a home WAL dir.
        clean_dir = tmp_path / "shape"
        clean_dir.mkdir()
        finished_home(0, str(clean_dir))
        assert sorted(home) == \
            sorted(fsck_home_dir(str(clean_dir)).to_dict())

    @pytest.mark.parametrize("model", [m.value for m in VisibilityModel])
    def test_any_slice_is_a_home_log_fsck_accepts(self, tmp_path, model):
        """The bundle property: home k's slice of the fleet log, saved
        as wal-000000.seg in an empty directory, is a clean, cleanly
        closed home log that replays to the fleet's row."""
        wal_dir = str(tmp_path / "fleet")
        result = FleetEngine(FleetConfig(
            homes=3, seed=11, model=model, crashes=1,
            wal_dir=wal_dir)).run()
        for row in result.rows:
            home_dir = tmp_path / f"home-{row['home_id']}"
            home_dir.mkdir()
            (home_dir / "wal-000000.seg").write_bytes(
                load_spooled_home(wal_dir, row["home_id"])["log"])
            report = fsck_home_dir(str(home_dir))
            doc = report.to_dict()
            assert (doc["status"], doc["clean_close"], doc["exit_code"]) \
                == ("clean", True, 0)
            assert doc["verify"]["ok"] and doc["verify"]["oracle"]["ok"]
            assert doc["home"] == f"{model}:{row['seed']}"
            # Journal entries: the frames plus the folded observations
            # (a checkpoint is both).
            verified = doc["verify"]["row"]
            assert verified["wal_records"] == doc["records"] \
                + verified["replayed_records"] \
                - verified["checkpoints_verified"]
            home = report.replayed_home
            replayed = home.report(check_final=True)
            assert (replayed.routines, replayed.committed,
                    replayed.aborted, replayed.latency["p50"],
                    home.last_result.makespan) == \
                (row["routines"], row["committed"], row["aborted"],
                 row["lat_p50"], row["makespan"])

    def test_fleet_cell_of_the_corruption_matrix(self, tmp_path):
        """Every fault the injector can apply to a home log, applied to
        one home's image inside a fleet log: fsck never reports a clean
        fleet whose replayed state differs."""
        silent = salvaged = 0
        for seed, kind in enumerate(FAULT_KINDS):
            cell = tmp_path / kind
            cell.mkdir()
            wal_dir = self.spool(cell, homes=3)
            before = os.path.getsize(os.path.join(wal_dir, MERGED_NAME))
            inject_fleet_fault(wal_dir, 1, kind, seed=seed)
            after = os.path.getsize(os.path.join(wal_dir, MERGED_NAME))
            report = fsck_path(wal_dir, salvage=True)
            if report.status == "clean" and not report.exit_code():
                states = [baseline_state(replay_spooled_home(
                    load_spooled_home(wal_dir, home_id)))
                    for home_id in range(3)]
                silent += states != self.baselines
                continue
            # Loud: the damaged home is named, and salvaged oracle-clean
            # wherever its good prefix allows; a fault that changed the
            # image's length trips the index check on every later slice
            # as well.
            assert report.exit_code() in (1, 2), kind
            assert 1 in report.homes and 0 not in report.homes, kind
            assert (2 in report.homes) == (after != before), kind
            assert report.homes[1].status == "corrupt", kind
            if report.homes[1].salvage["ok"]:
                assert report.homes[1].salvage["oracle"]["ok"], kind
                salvaged += 1
            else:
                assert report.homes[1].salvage["error"], kind
        assert silent == 0
        assert salvaged >= len(FAULT_KINDS) - 1


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
        report = fsck_path(os.path.join(wal_dir, MERGED_NAME))
        assert report.target == "fleet"
        assert report.status == "clean"
