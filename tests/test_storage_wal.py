"""On-disk segmented WAL: frame format, scanner classification, the
staging swap, and byte-identity between disk and memory logs."""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.errors import CorruptionError, SafeHomeError
from repro.hub.durability.storage import (FRAME, KIND_RECORD, MAGIC,
                                          SegmentedWalWriter, canonical_json,
                                          encode_frame, encode_log,
                                          list_segments, scan_log,
                                          scan_wal_dir, segment_name,
                                          split_images)
from repro.hub.durability.wal import WalRecord
from repro.hub.safehome import SafeHome

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import gen_wal_golden  # noqa: E402


def make_records(count, start=0):
    return [WalRecord(seq=start + i, type="device-added",
                      payload={"type": "light", "name": f"l{i}"},
                      time=float(i))
            for i in range(count)]


def write_log(wal_dir, count=6, seal_every=3, final=True, **kwargs):
    writer = SegmentedWalWriter(wal_dir, home="test:0", **kwargs)
    for record in make_records(count):
        writer.append(record)
        if seal_every and (record.seq + 1) % seal_every == 0:
            writer.seal(seq=record.seq + 1, digest=f"d{record.seq}",
                        events=record.seq + 1, time=record.time,
                        index=(record.seq + 1) // seal_every - 1)
    writer.close(seal_events=count, seal_time=float(count),
                 write_final_seal=final)
    return writer


def build_durable(tmp_path, model="ev", execution=None, seed=3,
                  checkpoint_every=8, close=True):
    from repro.hub.durability import DurabilityConfig

    wal_dir = str(tmp_path / "wal")
    home = SafeHome(visibility=model, execution=execution, seed=seed,
                    durability=DurabilityConfig(
                        checkpoint_every=checkpoint_every),
                    wal_dir=wal_dir)
    home.add_device("window", "w")
    home.add_device("ac", "a")
    home.add_device("light", "l")
    home.register_routine_spec({"routineName": "cool", "commands": [
        {"device": "w", "action": "CLOSED", "durationSec": 2},
        {"device": "a", "action": "ON", "durationSec": 3}]})
    home.invoke("cool")
    home.run()
    if close:
        home.close_wal()
    return home, wal_dir


class TestWriterScanner:
    def test_round_trip_clean_close(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=6, seal_every=3)
        scan = scan_wal_dir(wal_dir)
        assert scan.status == "clean"
        assert scan.clean_close
        assert scan.home == "test:0"
        assert [r.seq for r in scan.records] == list(range(6))
        assert [r.to_dict() for r in scan.records] == \
            [r.to_dict() for r in make_records(6)]
        # 2 checkpoint seals + 1 final close seal.
        assert len(scan.seals) == 3
        assert scan.seals[-1]["final"] is True

    def test_no_final_seal_is_a_crash_image(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=6, seal_every=3, final=False)
        scan = scan_wal_dir(wal_dir)
        assert scan.status == "clean"
        assert not scan.clean_close

    def test_segments_roll_and_chain(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=40, seal_every=10,
                  segment_max_bytes=1024)
        names = list_segments(wal_dir)
        assert len(names) > 1
        assert names[0] == segment_name(0)
        scan = scan_wal_dir(wal_dir)
        assert scan.status == "clean"
        assert [r.seq for r in scan.records] == list(range(40))
        # base_seq chains across segments with no gaps.
        seqs = [seg.base_seq for seg in scan.segments]
        assert seqs == sorted(seqs) and seqs[0] == 0

    def test_refuses_existing_segments(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=2, seal_every=0)
        with pytest.raises(SafeHomeError, match="refusing to overwrite"):
            SegmentedWalWriter(wal_dir)

    def test_empty_dir_scan_raises(self, tmp_path):
        with pytest.raises(SafeHomeError, match="no WAL segments"):
            scan_wal_dir(str(tmp_path))

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / segment_name(0)
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 64)
        scan = scan_wal_dir(str(tmp_path), strict=False)
        # Single segment, so bad magic reads as a torn tail at offset 0
        # unless a coherent frame follows — none does here.
        assert scan.status == "truncated"
        assert scan.truncated["reason"] == "bad or partial segment magic"


class TestClassification:
    def test_torn_tail_truncates_silently(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=6, seal_every=3, final=False)
        path = os.path.join(wal_dir, segment_name(0))
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:-7])  # tear the last frame mid-payload
        scan = scan_wal_dir(wal_dir)  # strict: must NOT raise
        assert scan.status == "truncated"
        assert scan.truncated["reason"] == "frame payload torn at end of log"
        # The torn frame was the trailing seal; every record survives.
        assert [r.seq for r in scan.records] == list(range(6))
        assert len(scan.seals) == 1

    def test_mid_log_bit_flip_raises_with_context(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=6, seal_every=0)
        path = os.path.join(wal_dir, segment_name(0))
        data = bytearray(open(path, "rb").read())
        # Flip a payload bit in the second record frame: find it by
        # walking frames (magic + header frame + first record).
        offset = len(MAGIC)
        for _ in range(2):  # skip header + record 0
            length, _crc, _kind = FRAME.unpack_from(data, offset)
            offset += FRAME.size + length
        data[offset + FRAME.size + 4] ^= 0x10
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(CorruptionError) as excinfo:
            scan_wal_dir(wal_dir)
        error = excinfo.value
        assert error.seq == 1
        assert error.offset == offset
        # The satellite contract: seq, type and offset in the message.
        assert f"seq={error.seq}" in str(error)
        assert f"offset={offset}" in str(error)
        assert "type=record" in str(error)

    def test_mid_log_carve_is_not_a_tail(self, tmp_path):
        # Deleting bytes mid-log leaves coherent frames after the
        # damage; the resync probe must refuse the torn-tail reading.
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=8, seal_every=0)
        path = os.path.join(wal_dir, segment_name(0))
        data = open(path, "rb").read()
        offset = len(MAGIC)
        length, _crc, _kind = FRAME.unpack_from(data, offset)
        offset += FRAME.size + length  # start of record 0's frame
        with open(path, "wb") as handle:
            handle.write(data[:offset + 3] + data[offset + 20:])
        with pytest.raises(CorruptionError, match="coherent frame follows"):
            scan_wal_dir(wal_dir)

    def test_duplicate_frame_breaks_sequence(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=4, seal_every=0, final=False)
        path = os.path.join(wal_dir, segment_name(0))
        data = open(path, "rb").read()
        frame = encode_frame(KIND_RECORD,
                             canonical_json(make_records(1)[0].to_dict()))
        with open(path, "ab") as handle:
            handle.write(frame)  # record seq 0 appended after seq 3
        with pytest.raises(CorruptionError, match="sequence break"):
            scan_wal_dir(wal_dir)

    def test_truncated_non_last_segment_is_corruption(self, tmp_path):
        # A tail chop is only a legal crash image in the LAST segment;
        # the same damage mid-chain must raise, not truncate.
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=40, seal_every=10,
                  segment_max_bytes=1024, final=False)
        names = list_segments(wal_dir)
        assert len(names) >= 2
        first = os.path.join(wal_dir, names[0])
        data = open(first, "rb").read()
        with open(first, "wb") as handle:
            handle.write(data[:-5])
        with pytest.raises(CorruptionError,
                           match="truncated mid-log"):
            scan_wal_dir(wal_dir)

    def test_missing_segment_detected(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=40, seal_every=10,
                  segment_max_bytes=1024)
        names = list_segments(wal_dir)
        assert len(names) >= 3
        os.remove(os.path.join(wal_dir, names[1]))
        with pytest.raises(CorruptionError, match="missing segment"):
            scan_wal_dir(wal_dir)


class TestDurableHomeOnDisk:
    def test_disk_matches_memory_byte_for_byte(self, tmp_path):
        home, wal_dir = build_durable(tmp_path)
        scan = scan_wal_dir(wal_dir)
        assert scan.status == "clean" and scan.clean_close
        disk = [json.dumps(r.to_dict(), sort_keys=True)
                for r in scan.records]
        memory = [json.dumps(r.to_dict(), sort_keys=True)
                  for r in home.wal.records]
        assert disk == memory
        # One seal per captured checkpoint, plus the final close seal.
        assert len(scan.seals) == len(home.durability.checkpoints) + 1

    def test_seal_digests_match_checkpoints(self, tmp_path):
        home, wal_dir = build_durable(tmp_path, checkpoint_every=4)
        scan = scan_wal_dir(wal_dir)
        seals = [s for s in scan.seals if not s["final"]]
        assert len(seals) == len(home.durability.checkpoints)
        for seal, checkpoint in zip(seals, home.durability.checkpoints):
            assert seal["digest"] == checkpoint.digest
            assert seal["seq"] == checkpoint.seq
            assert checkpoint.observed.items() <= seal.items()
        # The final seal closes on every observation the home made.
        assert home.wal.observed().items() <= scan.seals[-1].items()

    def test_wal_dir_forces_durability(self, tmp_path):
        home = SafeHome(visibility="ev", seed=0,
                        wal_dir=str(tmp_path / "w"))
        assert home.durability is not None
        assert home.wal_dir == str(tmp_path / "w")

    def test_reset_closes_the_discarded_log(self, tmp_path):
        """Regression: reset() dropped the manager with its segment
        handle still open and the log unsealed."""
        home, wal_dir = build_durable(tmp_path, close=False)
        storage = home.durability.storage
        home.reset(seed=4)
        assert storage.closed and storage._handle is None
        assert home.durability is None
        assert scan_wal_dir(wal_dir).clean_close
        # The discarded incarnation's segments are still guarded.
        with pytest.raises(SafeHomeError, match="refusing to overwrite"):
            home.reset(durability=True)

    def test_recovery_rewrites_log_via_staging(self, tmp_path):
        from repro.hub.durability.storage import STAGING_DIR

        wal_dir = str(tmp_path / "wal")
        home = SafeHome(visibility="ev", seed=3, wal_dir=wal_dir)
        twin = SafeHome(visibility="ev", seed=3, durability=True)
        for h in (home, twin):
            h.add_device("window", "w")
            h.add_device("ac", "a")
            h.register_routine_spec({"routineName": "cool", "commands": [
                {"device": "w", "action": "CLOSED", "durationSec": 2},
                {"device": "a", "action": "ON", "durationSec": 3}]})
            h.invoke("cool")
            h.crash(after_events=5)
            h.run()
            h.recover()
            h.run()
        home.close_wal()
        # The staged swap completed and removed its work directory.
        assert not os.path.isdir(os.path.join(wal_dir, STAGING_DIR))
        scan = scan_wal_dir(wal_dir)
        assert scan.status == "clean" and scan.clean_close
        disk = [json.dumps(r.to_dict(), sort_keys=True)
                for r in scan.records]
        memory = [json.dumps(r.to_dict(), sort_keys=True)
                  for r in twin.wal.records]
        assert disk == memory
        assert json.dumps(home.report().row(), sort_keys=True,
                          default=repr) == \
            json.dumps(twin.report().row(), sort_keys=True, default=repr)

    def test_failed_staging_leaves_live_log(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=4, seal_every=2)
        before = {name: open(os.path.join(wal_dir, name), "rb").read()
                  for name in list_segments(wal_dir)}
        staged = SegmentedWalWriter(wal_dir, home="test:0", staging=True)
        staged.append(make_records(1)[0])
        staged.abort_staging()
        after = {name: open(os.path.join(wal_dir, name), "rb").read()
                 for name in list_segments(wal_dir)}
        assert before == after
        from repro.hub.durability.storage import STAGING_DIR
        assert not os.path.isdir(os.path.join(wal_dir, STAGING_DIR))

    def test_commit_staging_swaps_and_keeps_appending(self, tmp_path):
        wal_dir = str(tmp_path)
        write_log(wal_dir, count=4, seal_every=2)
        staged = SegmentedWalWriter(wal_dir, home="test:1", staging=True)
        for record in make_records(3):
            staged.append(record)
        staged.flush()
        staged.commit_staging()
        staged.append(make_records(1, start=3)[0])
        staged.close(seal_events=4, seal_time=4.0)
        scan = scan_wal_dir(wal_dir)
        assert scan.home == "test:1"
        assert [r.seq for r in scan.records] == [0, 1, 2, 3]
        assert scan.clean_close


class TestLogImage:
    """``encode_log`` is the writer's bytes without the file, one image
    reads back through the one scanner, and a concatenation of images
    (a fleet log) splits by walking frame lengths."""

    @pytest.mark.parametrize("model", ["wv", "gsv", "psv", "ev", "occ"])
    def test_encode_log_is_what_the_writer_leaves_on_disk(self, tmp_path,
                                                          model):
        home, wal_dir = build_durable(tmp_path, model=model,
                                      checkpoint_every=4)
        assert list_segments(wal_dir) == [segment_name(0)]
        assert len(home.durability.checkpoints) > 0
        image = encode_log(home.wal.records, home.durability.checkpoints,
                           home=f"{model}:3",
                           events=home.sim.events_processed,
                           time=home.sim.now,
                           observed=home.wal.observed())
        assert image == (Path(wal_dir) / segment_name(0)).read_bytes()

    def test_scan_log_equals_scan_wal_dir_of_the_saved_image(self, tmp_path):
        home, wal_dir = build_durable(tmp_path, checkpoint_every=4)
        image = (Path(wal_dir) / segment_name(0)).read_bytes()
        for data in (image, image[:-7], image[:200] + image[231:]):
            (Path(wal_dir) / segment_name(0)).write_bytes(data)
            from_disk = scan_wal_dir(wal_dir, strict=False)
            in_memory = scan_log(data, strict=False)
            assert in_memory.status == from_disk.status
            assert in_memory.header == from_disk.header
            assert in_memory.truncated == from_disk.truncated
            assert str(in_memory.corruption) == str(from_disk.corruption)
            assert in_memory.record_offsets == from_disk.record_offsets
            assert [r.to_dict() for r in in_memory.records] == \
                [r.to_dict() for r in from_disk.records]
        with pytest.raises(CorruptionError):
            scan_log(image[:200] + image[231:])

    def test_header_extra_rides_beside_the_scanner_keys(self):
        image = encode_log(make_records(2), [], home="x:1",
                           header_extra={"home_id": 7, "home": "spoofed"})
        scan = scan_log(image)
        assert scan.clean_close and scan.home == "x:1"
        assert scan.header["home_id"] == 7
        assert [r.seq for r in scan.records] == [0, 1]

    def test_split_images_walks_a_concatenation(self):
        images = [encode_log(make_records(count), [],
                             header_extra={"home_id": count})
                  for count in (3, 0, 5)]
        data = b"".join(images)
        split = split_images(data, "bundle")
        assert [header["home_id"] for header, _, _ in split] == [3, 0, 5]
        assert [data[offset:offset + length]
                for _, offset, length in split] == images
        assert split_images(b"", "bundle") == []

    def test_split_images_names_path_and_offset_of_damage(self):
        first, second = (encode_log(make_records(3), []) for _ in range(2))
        flipped = bytearray(first + second)
        flipped[len(first) + 40] ^= 0x04
        cases = {
            "torn": first + second[:-5],
            "crc": bytes(flipped),
            "magic": first + b"garbage",
            # Cut on a frame boundary: whole frames, no final seal.
            "unsealed": first + second[:second.rindex(b'{"digest"') - 9],
        }
        for name, data in cases.items():
            with pytest.raises(CorruptionError) as excinfo:
                split_images(data, "bundle", base=1000)
            assert excinfo.value.path == "bundle", name
            # Inside the second image, counted from ``base``.
            assert 1000 + len(first) <= excinfo.value.offset \
                < 1000 + len(data), name


class TestGoldenHealthyLog:
    """What a healthy durable hub writes is pinned byte for byte: the
    sha256 of every segment file, the checkpoint digests and the
    recovery row of a crash -> replay-recover -> run on -> close
    sequence (regenerate with scripts/gen_wal_golden.py — a diff there
    is a format change and needs a reason)."""

    @pytest.mark.parametrize("execution", gen_wal_golden.EXECUTIONS)
    @pytest.mark.parametrize("model", gen_wal_golden.MODELS)
    def test_segment_bytes_digests_and_recovery_row(self, model, execution,
                                                    tmp_path):
        golden = json.loads(gen_wal_golden.GOLDEN_PATH.read_text())
        fresh = gen_wal_golden.build_cell(model, execution, str(tmp_path))
        # Through JSON, as the committed cell went (tuples become lists).
        assert json.loads(json.dumps(fresh)) == \
            golden[f"{model}/{execution}"]
        assert len(fresh["checkpoint_digests"]) > 10

    def test_fleet_container_bytes(self, tmp_path):
        golden = json.loads(gen_wal_golden.GOLDEN_PATH.read_text())
        assert gen_wal_golden.build_fleet(str(tmp_path)) == golden["fleet"]
