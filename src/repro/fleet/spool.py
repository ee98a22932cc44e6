"""Worker-local WAL spooling for durable fleets.

A fleet log is a bundle of home logs, in the one on-disk format of
:mod:`repro.hub.durability.storage`.  The workers are the durability
plane:

* each worker appends every finished home's WAL to its **own** file in
  ``wal_dir`` as one log image (:func:`~repro.hub.durability.storage.
  encode_log`) — the bytes of the ``wal-000000.seg`` that home would
  have written with a ``wal_dir`` of its own, its header frame also
  carrying ``home_id``, ``scenario`` and ``seed``;
* after the pool drains, the parent performs one O(homes) pass:
  :func:`merge_spool` concatenates the images in home-id order into
  ``fleet-wal.segs`` and writes a byte-offset index
  (``fleet-wal-index.json``) so any home's log is one seek away;
* a home rebuilt from its slice (:func:`replay_spooled_home`) goes
  through the scanner and the replay engine every home log goes
  through, and reaches a byte-identical report — crashes, recoveries
  and all.

Records hold virtual times and seeded decisions only, so the merged log
and its index are byte-deterministic across backends, worker counts and
chunk layouts (worker file *names* differ per run).
"""

import glob
import json
import os
import threading
from typing import Any, Dict, Optional, Tuple

from repro.errors import CorruptionError, SafeHomeError
from repro.hub.durability.storage import encode_log, scan_log, split_images

#: Merged artifact names inside ``wal_dir``.
MERGED_NAME = "fleet-wal.segs"
INDEX_NAME = "fleet-wal-index.json"
INDEX_SCHEMA = "repro-fleet-wal-index/3"
_WORKER_FILES = "spool-*.seg"


def home_wal_record(home_id: int, scenario: str, seed: int, home) -> bytes:
    """One finished durable home's block of the fleet log: its whole WAL
    as a log image labelled with the home's fleet identity.  The input
    records are a complete replay recipe; the checkpoints, markers and
    seals are the evidence replay and ``repro fsck`` verify it against."""
    manager = home.durability
    if manager is None:
        raise ValueError(f"home {home_id} is not durable; nothing to spool")
    records = manager.wal.records
    created = records[0].payload
    return encode_log(
        records, manager.checkpoints,
        home=f"{created['visibility']}:{created['seed']}",
        header_extra={"home_id": home_id, "scenario": scenario,
                      "seed": seed},
        events=home.sim.events_processed, time=home.sim.now,
        observed=manager.wal.observed())


def refuse_leftover_workers(wal_dir: str) -> None:
    """A worker file from an earlier run would be merged into this
    one's log: refuse before any home is simulated (the home writer
    refuses to overwrite existing segments the same way)."""
    leftovers = sorted(glob.glob(os.path.join(wal_dir, _WORKER_FILES)))
    if leftovers:
        raise SafeHomeError(
            f"refusing to spool into {wal_dir!r}: found the worker file "
            f"{os.path.basename(leftovers[0])} of an earlier, unmerged "
            f"run; remove it first")


class SpoolWriter:
    """One worker's append-only file of home log images.

    The file name is unique per (process, thread) so every pool's
    workers spool without coordination; the handle stays open across
    homes and is flushed per home.
    """

    def __init__(self, wal_dir: str) -> None:
        self.wal_dir = wal_dir
        self._handle = None

    def write(self, block: bytes) -> None:
        if self._handle is None:
            name = f"spool-{os.getpid()}-{threading.get_ident()}.seg"
            self._handle = open(os.path.join(self.wal_dir, name), "ab")
        self._handle.write(block)
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def merge_spool(wal_dir: str,
                expected_homes: Optional[int] = None) -> Dict[str, Any]:
    """Concatenate every worker file into the indexed merged log.

    Worker files are split into their images by walking frame lengths
    (a worker that died mid-write, or a rotted file, is the typed
    :class:`~repro.errors.CorruptionError` with path and offset), the
    images ordered by home id and written to ``fleet-wal.segs`` +
    ``fleet-wal-index.json``; the worker files are removed.  Returns
    the summary the index also records.
    """
    workers = sorted(glob.glob(os.path.join(wal_dir, _WORKER_FILES)))
    blocks = {}
    seen = []
    for path in workers:
        with open(path, "rb") as handle:
            data = handle.read()
        for header, offset, length in split_images(data, path):
            if not isinstance(header.get("home_id"), int):
                raise CorruptionError(
                    "log image carries no home_id", path=path,
                    offset=offset, record_type="header")
            seen.append(header["home_id"])
            blocks[header["home_id"]] = data[offset:offset + length]
    if len(blocks) != len(seen):
        raise ValueError(
            f"duplicate home ids in spooled WAL: {sorted(seen)}")
    if expected_homes is not None and len(blocks) != expected_homes:
        raise ValueError(
            f"spooled WALs cover {len(blocks)} homes, fleet ran "
            f"{expected_homes}")

    index: Dict[str, Dict[str, int]] = {}
    with open(os.path.join(wal_dir, MERGED_NAME), "wb") as merged:
        for home_id in sorted(blocks):
            index[str(home_id)] = {"offset": merged.tell(),
                                   "length": len(blocks[home_id])}
            merged.write(blocks[home_id])
    summary = {"homes": len(blocks)}
    with open(os.path.join(wal_dir, INDEX_NAME), "w",
              encoding="utf-8") as handle:
        json.dump({"schema": INDEX_SCHEMA, **summary, "index": index},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    for path in workers:
        os.remove(path)
    return summary


def read_index(wal_dir: str) -> Dict[str, Any]:
    """The merged log's index document, checked before it is trusted: a
    foreign schema (a directory from before the one-format break) or a
    key that is no home id is refused here instead of being misread.
    :func:`read_block` checks the one entry it reads, so loading every
    home stays O(homes) index checks, not O(homes²)."""
    with open(os.path.join(wal_dir, INDEX_NAME), encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != INDEX_SCHEMA:
        raise ValueError(f"unexpected index schema {schema!r}")
    index = payload.get("index")
    if not isinstance(index, dict) or not all(map(str.isdecimal, index)):
        raise ValueError("malformed fleet index: no map from home ids")
    return payload


def read_block(wal_dir: str, home_id: int,
               index: Dict[str, Any]) -> Tuple[int, bytes]:
    """``(offset, bytes)`` of the slice the index names for one home
    (single seek + read); a slice the merged log cannot hold means the
    index is stale."""
    entry = index["index"].get(str(home_id))
    if entry is None:
        raise KeyError(f"home {home_id} is not in the spooled index")
    if not (isinstance(entry, dict) and sorted(entry) == ["length", "offset"]
            and all(type(n) is int and n >= 0 for n in entry.values())):
        raise ValueError(f"malformed fleet index: home {home_id} needs a "
                         f"non-negative integer offset and length")
    offset, length = entry["offset"], entry["length"]
    merged_path = os.path.join(wal_dir, MERGED_NAME)
    size = os.path.getsize(merged_path)
    if offset + length > size:
        raise CorruptionError(
            f"stale index: home {home_id} slice "
            f"[{offset}, {offset + length}) "
            f"overruns the {size}-byte merged log",
            path=merged_path, offset=offset)
    with open(merged_path, "rb") as handle:
        handle.seek(offset)
        return offset, handle.read(length)


def load_spooled_home(wal_dir: str, home_id: int) -> Dict[str, Any]:
    """One home's verified slice of the merged log, via the index.

    The slice is checked before it is trusted — in bounds, exactly one
    whole log image (:func:`~repro.hub.durability.storage.split_images`)
    whose header names ``home_id`` — and every failure is the typed
    :class:`~repro.errors.CorruptionError` with path and offset.
    Nothing but the header is decoded: the verified *bytes* come back
    under ``"log"``; decoding them is :func:`replay_spooled_home`'s and
    ``repro fsck``'s job.
    """
    offset, block = read_block(wal_dir, home_id, read_index(wal_dir))
    merged_path = os.path.join(wal_dir, MERGED_NAME)
    headers = [image[0] for image in split_images(block, merged_path, offset)]
    if [header.get("home_id") for header in headers] != [home_id]:
        raise CorruptionError(
            f"stale index: slice for home {home_id} holds "
            f"{[header.get('home_id') for header in headers]}",
            path=merged_path, offset=offset, record_type="header")
    return {"home_id": home_id, "scenario": headers[0]["scenario"],
            "seed": headers[0]["seed"], "log": block}


def replay_spooled_home(record: Dict[str, Any]):
    """Rebuild one home from its slice of the fleet log: the strict scan
    every home log gets, then the replay engine hub recovery uses.  The
    returned :class:`SafeHome` has run to the final state the fleet
    worker reported — mid-run crash/recovery sequences included — and
    the slice's own checkpoints, ``crash`` markers and final seal are
    the evidence: a log that does not replay to them raises
    :class:`~repro.errors.RecoveryError` naming the diverging interval."""
    from repro.hub.durability.replay import build_home, replay

    scan = scan_log(record["log"])
    home = build_home(scan.records)
    replay(home, scan.records, end=scan.seals[-1])
    return home
