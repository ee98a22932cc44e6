"""Worker-local WAL spooling for durable fleets.

Before this module, a durable fleet's write-ahead logs lived and died
inside the workers: rows carried recovery *counters* back, but the WAL
itself — the complete, replayable recipe for each home — was dropped,
and any design that persisted it would have funneled every record
through the parent.  Spooling makes the workers the durability plane:

* each worker appends its homes' WALs (input + observation records,
  plus checkpoint digests) to its **own** segment file in ``wal_dir``
  — one compact JSON line per home, no parent involvement while the
  fleet runs;
* after the pool drains, the parent performs one O(homes) pass:
  :func:`merge_spool` concatenates the segments into a single
  ``fleet-wal.jsonl`` ordered by home id and writes a byte-offset
  index (``fleet-wal-index.json``) so any home's log is one seek away;
* replay determinism is preserved end-to-end: a home rebuilt from its
  spooled record (:func:`replay_spooled_home`) re-applies the logged
  inputs through the replay engine hub recovery uses
  (:mod:`repro.hub.durability.replay`), which checks every regenerated
  observation and checkpoint digest against the spooled ones, and
  reaches a byte-identical report — crashes, recoveries and all.

Spooled WAL records hold virtual times and seeded decisions only, so
segment contents are a pure function of the fleet config; the merged
file is byte-deterministic across backends, worker counts and chunk
layouts (segment *names* differ per run, the merged artifact does not).
"""

import json
import os
import threading
from typing import Any, Dict, List, Optional

from repro.errors import CorruptionError

#: Merged artifact names inside ``wal_dir``.
MERGED_NAME = "fleet-wal.jsonl"
INDEX_NAME = "fleet-wal-index.json"
_SEGMENT_PREFIX = "spool-"
_SEGMENT_SUFFIX = ".seg"

INDEX_SCHEMA = "repro-fleet-wal-index/1"


def home_wal_record(home_id: int, scenario: str, seed: int,
                    home) -> Dict[str, Any]:
    """One home's spool line: identity + full WAL + checkpoint digests.

    ``home`` is a durable :class:`~repro.hub.safehome.SafeHome` that
    has finished running; its WAL inputs are a complete replay recipe,
    and its observations, compaction counter and checkpoint digests are
    the evidence :func:`replay_spooled_home` verifies the replay against.
    """
    manager = home.durability
    if manager is None:
        raise ValueError(f"home {home_id} is not durable; nothing to spool")
    return {
        "home_id": home_id,
        "scenario": scenario,
        "seed": seed,
        "wal": [record.to_dict() for record in manager.wal.records],
        "compacted_observations": manager.wal.compacted_observations,
        "checkpoints": [checkpoint.to_dict()
                        for checkpoint in manager.checkpoints],
    }


class SpoolWriter:
    """One worker's append-only segment file.

    The file name is unique per (process, thread) so serial, thread and
    process pools all spool without coordination; the handle stays open
    across homes (flushed per record) so durability never re-opens the
    file on the per-home path.
    """

    def __init__(self, wal_dir: str) -> None:
        self.wal_dir = wal_dir
        self._handle = None

    def _open(self):
        if self._handle is None:
            name = (f"{_SEGMENT_PREFIX}{os.getpid()}-"
                    f"{threading.get_ident()}{_SEGMENT_SUFFIX}")
            self._handle = open(os.path.join(self.wal_dir, name),
                                "a", encoding="utf-8")
        return self._handle

    def write(self, record: Dict[str, Any]) -> None:
        handle = self._open()
        handle.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")) + "\n")
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def merge_spool(wal_dir: str,
                expected_homes: Optional[int] = None) -> Dict[str, Any]:
    """Concatenate every worker segment into the indexed merged log.

    Reads all ``spool-*.seg`` files, orders records by home id, writes
    ``fleet-wal.jsonl`` + ``fleet-wal-index.json`` and removes the
    segments.  Returns the summary the index also records.
    """
    records: List[Dict[str, Any]] = []
    segments = sorted(
        entry for entry in os.listdir(wal_dir)
        if entry.startswith(_SEGMENT_PREFIX)
        and entry.endswith(_SEGMENT_SUFFIX))
    for segment in segments:
        path = os.path.join(wal_dir, segment)
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    # A worker died mid-write (truncated line) or the
                    # segment rotted: surface the typed error with the
                    # damage location, never a raw decode traceback.
                    raise CorruptionError(
                        f"undecodable spool line ({exc.msg})",
                        path=path, line=number) from exc
    records.sort(key=lambda record: record["home_id"])
    seen = [record["home_id"] for record in records]
    if len(set(seen)) != len(seen):
        raise ValueError(f"duplicate home ids in spooled WAL: {seen}")
    if expected_homes is not None and len(records) != expected_homes:
        raise ValueError(
            f"spooled WALs cover {len(records)} homes, fleet ran "
            f"{expected_homes}")

    index: Dict[str, Dict[str, int]] = {}
    offset = 0
    wal_records = 0
    merged_path = os.path.join(wal_dir, MERGED_NAME)
    with open(merged_path, "w", encoding="utf-8") as merged:
        for record in records:
            line = json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n"
            encoded = len(line.encode("utf-8"))
            index[str(record["home_id"])] = {"offset": offset,
                                             "length": encoded}
            merged.write(line)
            offset += encoded
            wal_records += len(record["wal"])
    summary = {"homes": len(records), "wal_records": wal_records}
    with open(os.path.join(wal_dir, INDEX_NAME), "w",
              encoding="utf-8") as handle:
        json.dump({"schema": INDEX_SCHEMA, **summary, "index": index},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    for segment in segments:
        os.remove(os.path.join(wal_dir, segment))
    return summary


def _line_number_at(path: str, offset: int) -> int:
    """1-based line number of the byte at ``offset`` (error paths only:
    the hot path stays a single seek, damage reports pay one scan)."""
    with open(path, "rb") as handle:
        return handle.read(offset).count(b"\n") + 1


def load_spooled_home(wal_dir: str, home_id: int) -> Dict[str, Any]:
    """One home's spooled record, via the index (single seek + read).

    The indexed slice is *verified* against the merged log before it
    is trusted: out-of-bounds offsets, a slice that is not exactly one
    newline-terminated line, an undecodable payload or a home-id
    mismatch all mean the index is stale (the merged log was rewritten
    under it) or the log rotted — every case raises the typed
    :class:`~repro.errors.CorruptionError`, never a silent misread.
    """
    with open(os.path.join(wal_dir, INDEX_NAME), "r",
              encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != INDEX_SCHEMA:
        raise ValueError(f"unexpected index schema "
                         f"{payload.get('schema')!r}")
    entry = payload["index"].get(str(home_id))
    if entry is None:
        raise KeyError(f"home {home_id} is not in the spooled index")
    merged_path = os.path.join(wal_dir, MERGED_NAME)
    size = os.path.getsize(merged_path)
    if entry["offset"] + entry["length"] > size:
        raise CorruptionError(
            f"stale index: home {home_id} slice "
            f"[{entry['offset']}, {entry['offset'] + entry['length']}) "
            f"overruns the {size}-byte merged log",
            path=merged_path, offset=entry["offset"])
    with open(merged_path, "rb") as handle:
        handle.seek(entry["offset"])
        line = handle.read(entry["length"])
    if not line.endswith(b"\n") or b"\n" in line[:-1]:
        raise CorruptionError(
            f"stale index: home {home_id} slice is not one whole line "
            f"of the merged log",
            path=merged_path, offset=entry["offset"],
            line=_line_number_at(merged_path, entry["offset"]))
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptionError(
            f"undecodable merged WAL line for home {home_id}",
            path=merged_path, offset=entry["offset"],
            line=_line_number_at(merged_path, entry["offset"])) from exc
    if record.get("home_id") != home_id:
        raise CorruptionError(
            f"stale index: slice for home {home_id} holds home "
            f"{record.get('home_id')}",
            path=merged_path, offset=entry["offset"],
            line=_line_number_at(merged_path, entry["offset"]))
    return record


def replay_spooled_home(record: Dict[str, Any]):
    """Rebuild one home from its spooled WAL, by verified replay.

    Re-applies the durable input records — including any mid-run
    crash/recovery sequences — through the replay engine hub recovery
    uses, so the returned :class:`SafeHome` has run to the same final
    state the fleet worker reported (the spooled-WAL byte-identity test
    in ``tests/test_fleet_transport.py`` pins the whole row).  The
    line's own observations and checkpoint digests are the evidence: a
    spooled record that does not replay to them raises
    :class:`~repro.errors.RecoveryError` naming the diverging record.
    """
    from repro.hub.durability.replay import build_home, replay
    from repro.hub.durability.wal import WalRecord

    records = [WalRecord.from_dict(entry) for entry in record["wal"]]
    home = build_home(records)
    replay(home, records, checkpoints=record["checkpoints"],
           compacted=record["compacted_observations"])
    return home
