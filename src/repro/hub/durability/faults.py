"""Seeded storage-fault injector for on-disk WAL directories.

The hub-crash chaos machinery (PR 3) injects *process* deaths; this
module injects *storage* deaths into the segmented log that survives
them: the byte-level damage real disks and filesystems produce.  Every
fault is a pure function of ``(wal_dir contents, kind, seed)``, so a
corruption grid is exactly replayable — the same discipline the
simulator applies to time and randomness, extended to bit rot.

A fleet log is a bundle of home logs, so :func:`inject_fleet_fault`
applies the same faults to one home's image inside it.

Fault kinds (:data:`FAULT_KINDS`):

* ``torn-tail`` — chop the last segment mid-frame: the designed crash
  image.  The scanner must classify it as truncation, never raise.
* ``truncated-segment`` — damage that *cannot* be a crash: cut the
  tail off a non-last segment, or carve bytes out of the middle when
  only one segment exists.
* ``bit-flip`` — flip one bit inside a frame that is not the final
  frame of the log (that position would be a legal torn tail).
* ``duplicate-frame`` — re-insert a copy of a record frame right after
  itself (a replayed write): valid CRC, broken sequence.
* ``reorder-frames`` — swap two adjacent record frames (reordered
  writeback): valid CRCs, broken sequence.
* ``missing-seal`` — remove a checkpoint seal frame; the checkpoint
  record that references it survives, so the cross-check must fire.

:func:`run_corruption_matrix` is the headline property harness (shared
by ``tests/test_fsck.py``, ``scripts/check.sh`` and the CI ``fsck``
job): for every model × execution × fault kind it corrupts a finished
home's log, runs ``fsck``, and classifies the outcome — byte-identical
replay, crash-consistent truncation, or loud salvage.  A *silent
divergence* (scanner says clean, nothing missing, state differs) is
what the whole layer exists to prevent; the matrix asserts zero.
"""

import json
import os
import random
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CorruptionError, RecoveryError, SafeHomeError
from repro.hub.durability.storage import (FRAME, KIND_HEADER, KIND_RECORD,
                                          KIND_SEAL, MAGIC, list_segments,
                                          segment_name)

#: Every injectable fault kind, in grid order.
FAULT_KINDS = (
    "torn-tail",
    "truncated-segment",
    "bit-flip",
    "duplicate-frame",
    "reorder-frames",
    "missing-seal",
)


def _index_frames(data: bytes) -> List[Tuple[int, int, int]]:
    """Frame table of one healthy segment: (offset, total_len, kind)."""
    frames = []
    offset = len(MAGIC)
    while offset + FRAME.size <= len(data):
        length, _crc, kind = FRAME.unpack_from(data, offset)
        total = FRAME.size + length
        if offset + total > len(data):
            break
        frames.append((offset, total, kind))
        offset += total
    return frames


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


def inject_fault(wal_dir: str, kind: str, seed: int = 0) -> Dict[str, Any]:
    """Damage one WAL directory in place, deterministically.

    Returns a description of what was done (segment, offset, bytes) so
    reports and fixtures can name the damage.  Raises ``ValueError``
    for an unknown kind and :class:`~repro.errors.SafeHomeError` when
    the log is too small to host the requested fault.
    """
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}; "
                         f"pick from {FAULT_KINDS}")
    names = list_segments(wal_dir)
    if not names:
        raise SafeHomeError(f"no WAL segments in {wal_dir!r}")
    # Stable per-kind stream (zlib.crc32, not hash(): the latter is
    # salted per process and would unseed the grid).
    rng = random.Random(zlib.crc32(kind.encode("utf-8")) * 1_000_003
                        + seed)

    if kind == "torn-tail":
        name = names[-1]
        path = os.path.join(wal_dir, name)
        data = _read(path)
        frames = _index_frames(data)
        victims = [f for f in frames if f[2] != KIND_HEADER]
        if not victims:
            raise SafeHomeError("last segment has no frames to tear")
        offset, total, _ = victims[-1] if len(victims) == 1 \
            else rng.choice(victims[len(victims) // 2:])
        cut = offset + rng.randrange(1, total)
        _write(path, data[:cut])
        return {"kind": kind, "segment": name, "offset": offset,
                "cut": cut, "bytes_dropped": len(data) - cut}

    if kind == "truncated-segment":
        if len(names) > 1:
            name = names[rng.randrange(len(names) - 1)]
            path = os.path.join(wal_dir, name)
            data = _read(path)
            frames = _index_frames(data)
            victims = [f for f in frames if f[2] != KIND_HEADER]
            if not victims:
                raise SafeHomeError(f"segment {name} has no frames")
            offset, total, _ = victims[-1]
            cut = offset + rng.randrange(1, total)
            _write(path, data[:cut])
            return {"kind": kind, "segment": name, "offset": offset,
                    "cut": cut, "bytes_dropped": len(data) - cut}
        # Single segment: carve a slice out of the middle instead (the
        # tail position would read as a legal torn tail).
        name = names[0]
        path = os.path.join(wal_dir, name)
        data = _read(path)
        frames = _index_frames(data)
        victims = [f for f in frames if f[2] == KIND_RECORD][:-1]
        if not victims:
            raise SafeHomeError("log too small to truncate mid-stream")
        offset, total, _ = rng.choice(victims)
        hole = rng.randrange(1, total)
        _write(path, data[:offset] + data[offset + hole:])
        return {"kind": kind, "segment": name, "offset": offset,
                "cut": offset, "bytes_dropped": hole}

    if kind == "bit-flip":
        name = names[rng.randrange(len(names))]
        path = os.path.join(wal_dir, name)
        data = _read(path)
        frames = _index_frames(data)
        # The final frame of the final segment is the one position
        # where a bad CRC is (correctly) read as a torn tail.
        victims = [f for f in frames if f[2] != KIND_HEADER]
        if name == names[-1] and len(victims) > 1:
            victims = victims[:-1]
        if not victims:
            raise SafeHomeError("log too small for a mid-log bit flip")
        offset, total, _ = rng.choice(victims)
        position = offset + FRAME.size + \
            rng.randrange(max(1, total - FRAME.size))
        flipped = bytearray(data)
        flipped[position] ^= 1 << rng.randrange(8)
        _write(path, bytes(flipped))
        return {"kind": kind, "segment": name, "offset": offset,
                "byte": position}

    if kind == "duplicate-frame":
        name = names[rng.randrange(len(names))]
        path = os.path.join(wal_dir, name)
        data = _read(path)
        frames = _index_frames(data)
        victims = [f for f in frames if f[2] == KIND_RECORD]
        if not victims:
            raise SafeHomeError("no record frames to duplicate")
        offset, total, _ = rng.choice(victims)
        frame = data[offset:offset + total]
        _write(path, data[:offset + total] + frame
               + data[offset + total:])
        return {"kind": kind, "segment": name, "offset": offset,
                "bytes_added": total}

    if kind == "reorder-frames":
        name = names[rng.randrange(len(names))]
        path = os.path.join(wal_dir, name)
        data = _read(path)
        frames = _index_frames(data)
        pairs = [(frames[i], frames[i + 1])
                 for i in range(len(frames) - 1)
                 if frames[i][2] == KIND_RECORD
                 and frames[i + 1][2] == KIND_RECORD]
        if not pairs:
            raise SafeHomeError("no adjacent record frames to reorder")
        (off_a, len_a, _), (off_b, len_b, _) = rng.choice(pairs)
        swapped = (data[:off_a] + data[off_b:off_b + len_b]
                   + data[off_a:off_a + len_a] + data[off_b + len_b:])
        _write(path, swapped)
        return {"kind": kind, "segment": name, "offset": off_a,
                "swapped_with": off_b}

    # missing-seal
    for name in names:
        path = os.path.join(wal_dir, name)
        data = _read(path)
        frames = _index_frames(data)
        seals = [f for f in frames if f[2] == KIND_SEAL]
        # Never remove the final seal of the last segment: a log whose
        # clean-close marker is missing is a legal crash image.
        if name == names[-1] and seals:
            end_off, end_len, _ = seals[-1]
            if end_off + end_len == len(data):
                seals = seals[:-1]
        if seals:
            offset, total, _ = rng.choice(seals)
            _write(path, data[:offset] + data[offset + total:])
            return {"kind": kind, "segment": name, "offset": offset,
                    "bytes_dropped": total}
    raise SafeHomeError("log has no removable seal (no checkpoint "
                        "fired); lower checkpoint_every")


def inject_fleet_fault(wal_dir: str, home_id: int, kind: str,
                       seed: int = 0) -> Dict[str, Any]:
    """Damage one home's image inside a merged fleet log, in place.

    The image is a home log, so it is damaged as one: written out as
    ``wal-000000.seg``, hit by :func:`inject_fault`, spliced back where
    it was.  The index is left alone — a fault that changes the image's
    length stales every later slice too.
    """
    import tempfile

    from repro.fleet.spool import MERGED_NAME, read_block, read_index

    offset, block = read_block(wal_dir, home_id, read_index(wal_dir))
    with tempfile.TemporaryDirectory(prefix="repro-fleet-fault-") as scratch:
        path = os.path.join(scratch, segment_name(0))
        _write(path, block)
        injection = inject_fault(scratch, kind, seed=seed)
        damaged = _read(path)
    merged_path = os.path.join(wal_dir, MERGED_NAME)
    merged = _read(merged_path)
    _write(merged_path,
           merged[:offset] + damaged + merged[offset + len(block):])
    return {**injection, "home_id": home_id}


# ---------------------------------------------------------------------------
# the corruption grid


def build_durable_home(model: str, execution: str, wal_dir: Optional[str],
                       seed: int = 0, checkpoint_every: int = 8):
    """One finished durable chaos home (the grid's subject).

    Loads the shared chaos workload, runs it to completion and — when
    ``wal_dir`` is given — leaves a cleanly closed on-disk log behind.
    """
    from repro.hub.durability.recovery import DurabilityConfig
    from repro.hub.safehome import SafeHome
    from repro.workloads.chaos import chaos_workload

    home = SafeHome(visibility=model, execution=execution, seed=seed,
                    durability=DurabilityConfig(
                        checkpoint_every=checkpoint_every),
                    wal_dir=wal_dir)
    home.load_workload(chaos_workload(seed=seed))
    home.run()
    if wal_dir is not None:
        home.close_wal()
    return home


def baseline_state(home) -> str:
    """Canonical final-state string a replayed twin must reproduce."""
    from repro.hub.durability.wal import jsonify

    # check_final=False: WV's chaos runs are legitimately cyclic and
    # would raise; byte-equality is the point here, the congruence
    # verdict comes from the oracle pass.
    return json.dumps({
        "devices": jsonify(home.snapshot()),
        "report": home.report(check_final=False).row(),
    }, sort_keys=True)


def corruption_trial(model: str, execution: str, kind: str,
                     wal_dir: str, seed: int = 0,
                     checkpoint_every: int = 8) -> Dict[str, Any]:
    """One grid cell: build → corrupt → fsck → classify the outcome.

    Outcome classes (``outcome`` key):

    * ``identical`` — the log read back clean and replay reproduced a
      byte-identical final state;
    * ``truncated`` — the scanner classified the damage as a
      crash-consistent torn tail and bounded replay of the surviving
      prefix passed verification + the congruence oracle;
    * ``salvaged`` — the scanner raised ``CorruptionError`` and salvage
      produced an oracle-clean home from the good prefix;
    * ``loud-failure`` — corruption was detected but salvage refused
      (typed error, nothing silently accepted);
    * ``SILENT-DIVERGENCE`` — the scanner saw nothing wrong, no records
      are missing, and the replayed state differs.  The grid asserts
      this never happens.
    """
    from repro.hub.durability.fsck import fsck_path

    baseline_home = build_durable_home(model, execution, wal_dir,
                                       seed=seed,
                                       checkpoint_every=checkpoint_every)
    baseline = baseline_state(baseline_home)
    pristine_records = len(baseline_home.wal.records)
    injection = inject_fault(wal_dir, kind, seed=seed)

    trial: Dict[str, Any] = {
        "model": model, "execution": execution, "kind": kind,
        "seed": seed, "injection": injection,
    }
    try:
        report = fsck_path(wal_dir, salvage=True)
    except (CorruptionError, RecoveryError, SafeHomeError) as exc:
        trial["outcome"] = "loud-failure"
        trial["error"] = str(exc)
        return trial
    doc = report.to_dict()
    trial["fsck"] = {"status": doc["status"],
                     "exit_code": report.exit_code()}

    if doc["status"] == "clean":
        replayed = report.replayed_home
        state = baseline_state(replayed) if replayed is not None else None
        if state == baseline and doc["records"] == pristine_records:
            trial["outcome"] = "identical"
        elif doc["records"] == pristine_records:
            # Nothing flagged, nothing missing, state differs: the
            # exact hole this layer exists to close.
            trial["outcome"] = "SILENT-DIVERGENCE"
        else:
            # A frame-boundary chop is indistinguishable from a crash
            # at that boundary — but fsck must still surface that the
            # close marker is gone.
            trial["outcome"] = ("truncated" if not doc["clean_close"]
                               and doc["verify"]["ok"]
                               else "SILENT-DIVERGENCE")
    elif doc["status"] == "truncated":
        ok = doc["verify"] is not None and doc["verify"]["ok"] and \
            (doc["verify"]["oracle"] is None or doc["verify"]["oracle"]["ok"])
        trial["outcome"] = "truncated" if ok else "loud-failure"
        if not ok:
            trial["error"] = "truncated-log replay failed verification"
    else:  # corrupt
        salvage = doc.get("salvage")
        ok = salvage is not None and salvage.get("ok") and \
            (salvage.get("oracle") is None or salvage["oracle"]["ok"])
        trial["outcome"] = "salvaged" if ok else "loud-failure"
        if not ok:
            trial["error"] = (salvage or {}).get("error",
                                                "salvage not attempted")
    return trial


def run_corruption_matrix(models=None, executions=None, kinds=None,
                          seeds=(0,), base_dir: Optional[str] = None,
                          checkpoint_every: int = 8) -> Dict[str, Any]:
    """The full grid; returns a deterministic summary report."""
    import shutil
    import tempfile

    from repro.core.visibility import VisibilityModel

    models = list(models) if models else \
        [m.value for m in VisibilityModel]
    executions = list(executions) if executions else ["serial", "parallel"]
    kinds = list(kinds) if kinds else list(FAULT_KINDS)
    trials: List[Dict[str, Any]] = []
    owned = base_dir is None
    root = base_dir or tempfile.mkdtemp(prefix="repro-fsck-grid-")
    try:
        for model in models:
            for execution in executions:
                for kind in kinds:
                    for seed in seeds:
                        cell = os.path.join(
                            root, f"{model}-{execution}-{kind}-{seed}")
                        os.makedirs(cell, exist_ok=True)
                        trials.append(corruption_trial(
                            model, execution, kind, cell, seed=seed,
                            checkpoint_every=checkpoint_every))
                        shutil.rmtree(cell, ignore_errors=True)
    finally:
        if owned:
            shutil.rmtree(root, ignore_errors=True)
    outcomes: Dict[str, int] = {}
    for trial in trials:
        outcomes[trial["outcome"]] = outcomes.get(trial["outcome"], 0) + 1
    return {
        "schema": "repro-fsck-matrix/1",
        "models": models,
        "executions": executions,
        "kinds": kinds,
        "seeds": list(seeds),
        "trials": trials,
        "outcomes": dict(sorted(outcomes.items())),
        "silent_divergences": outcomes.get("SILENT-DIVERGENCE", 0),
    }
