"""On-disk segmented write-ahead log: the hub's durable substrate.

PR 3 gave the hub a typed in-memory WAL; this module puts it on disk in
a form that *detects and survives* storage faults instead of trusting
the filesystem.  A durable home constructed with
``SafeHome(durability=True, wal_dir=...)`` streams every WAL record
(inputs, markers, checkpoints — never another observation) into
segment files:

* **segments** — append-only files ``wal-000000.seg``, rolled once a
  segment passes ``segment_max_bytes``.  Each starts with an 8-byte
  magic and a header frame carrying schema version, home label,
  segment index and the first record sequence number it holds, so a
  scanner can reject foreign files and detect missing segments.
* **frames** — every record is one length-prefixed frame
  (``<u32 payload_len, u32 crc32, u8 kind>`` + canonical-JSON payload).
  The CRC covers kind + payload, so a single flipped bit anywhere in a
  record is caught.  The payload is the canonical JSON record form
  (``WalRecord.to_dict`` with sorted keys).
* **seals** — at every checkpoint boundary the writer appends a seal
  frame holding the checkpoint's sequence floor, event count, state
  digest and observation seal; ``close()`` appends a final seal with
  the closing one.  Everything at or before a seal is
  *digest-protected history*; anything after the last seal is the
  crash-window tail.
* **flush discipline** — the observation buffer drains at simulator
  event boundaries (PR 5); the storage writer flushes to the OS at the
  same boundary and at every seal, so the on-disk tail is torn only
  ever at an event boundary plus whatever the OS lost mid-write.  The
  writer never calls ``fsync``: the log survives the death of the hub
  process, and what it survives of a power cut is whatever the OS had
  written back by then.

Reading back is a *detect-and-classify* scan (:func:`scan_wal_dir`):

* a structural failure (short frame, insane length, partial header) or
  a CRC mismatch on the **final** frame of the **last** segment is a
  torn tail — the designed crash image — and is truncated, loudly
  recorded in the scan, never raised;
* anything else — CRC mismatch mid-log, a sequence number that jumps,
  repeats or reorders, a truncated non-last segment, a checkpoint
  record whose seal frame is missing or disagrees — raises a typed
  :class:`~repro.errors.CorruptionError` carrying the record seq,
  record type and byte offset.

Recovery rewrites the log: a recovered hub's in-memory WAL re-copies
the input history under fresh sequence numbers, so the disk image of
the new incarnation is written into a staging directory and swapped in
only after replay verification passes (``commit_staging``); a failed
recovery leaves the crashed log untouched for retry or post-mortem.

The fleet's durable artifact is the same format: :func:`encode_log`
turns a finished in-memory log into one single-segment image, a fleet
log is a concatenation of such images (:func:`split_images`), and any
one of them reads back through :func:`scan_log`.
"""

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CorruptionError, SafeHomeError
from repro.hub.durability.wal import WalRecord, encode_compact

#: File-format constants.  The magic rejects foreign files before any
#: frame parsing; the version lives in every segment header.
MAGIC = b"REPROWAL"
SEGMENT_SCHEMA = "repro-wal-seg/4"
SEGMENT_VERSION = 4
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"
STAGING_DIR = ".staging-wal"

#: The observation seal of a log that folded nothing.
NO_OBSERVATIONS = {"obs_digest": hashlib.sha256().hexdigest(),
                   "observations": 0}

#: Frame header: payload length, crc32(kind + payload), frame kind.
FRAME = struct.Struct("<IIB")
KIND_HEADER = 0
KIND_RECORD = 1
KIND_SEAL = 2
_KIND_NAMES = {KIND_HEADER: "header", KIND_RECORD: "record",
               KIND_SEAL: "seal"}

#: Upper bound on a single frame payload; larger lengths are treated as
#: structural damage (a torn length field), not an allocation request.
MAX_PAYLOAD = 64 * 1024 * 1024

#: How far past a structural failure the scanner searches for a
#: coherent frame before accepting the torn-tail classification.
RESYNC_WINDOW = 4 * 1024 * 1024


def _frame_at(data: bytes, offset: int) -> Optional[Tuple[int, bytes, int]]:
    """``(kind, payload, end)`` of the coherent frame at ``offset`` —
    whole, sane kind and length, CRC-valid — else None."""
    if offset + FRAME.size > len(data):
        return None
    length, crc, kind = FRAME.unpack_from(data, offset)
    end = offset + FRAME.size + length
    if kind > KIND_SEAL or length > MAX_PAYLOAD or end > len(data):
        return None
    payload = data[offset + FRAME.size:end]
    if zlib.crc32(bytes([kind]) + payload) & 0xFFFFFFFF != crc:
        return None
    return kind, payload, end


def _find_frame_after(data: bytes, start: int) -> Optional[int]:
    """Offset of the first coherent frame at/after ``start``, else None.

    The disambiguator between a torn tail and mid-log damage: appends
    are sequential, so a genuine crash truncates the file — nothing
    follows the tear.  A CRC-valid frame *after* a structural failure
    means bytes were lost or mangled mid-log (the odds of torn garbage
    passing a CRC32 are ~2^-32, ignored).
    """
    end = min(len(data), start + RESYNC_WINDOW)
    for candidate in range(start, end - FRAME.size + 1):
        if _frame_at(data, candidate) is not None:
            return candidate
    return None


def canonical_json(payload: Dict[str, Any]) -> bytes:
    """The one serialized form every frame payload uses (sorted keys,
    compact separators, UTF-8)."""
    return encode_compact(payload).encode("utf-8")


def encode_frame(kind: int, payload: bytes) -> bytes:
    crc = zlib.crc32(bytes([kind]) + payload) & 0xFFFFFFFF
    return FRAME.pack(len(payload), crc, kind) + payload


def header_frame(home: str, segment: int, base_seq: int,
                 extra: Optional[Dict[str, Any]] = None) -> bytes:
    """A segment's header frame; ``extra`` keys ride beside the five the
    scanner checks (the fleet spool's ``home_id``/``scenario``/``seed``)."""
    return encode_frame(KIND_HEADER, canonical_json({
        **(extra or {}), "base_seq": base_seq, "home": home,
        "schema": SEGMENT_SCHEMA, "segment": segment,
        "version": SEGMENT_VERSION}))


def record_frame(record: WalRecord) -> bytes:
    """One WAL record as a frame: ``canonical_json(record.to_dict())``
    byte for byte, assembled around the record's memoized payload
    encoding so the payload is encoded once for disk and replay
    verification alike ("payload" sorts before the other keys)."""
    rest = canonical_json({"seq": record.seq, "time": record.time,
                           "type": record.type})
    return encode_frame(KIND_RECORD, b'{"payload":%b,%b' % (
        record.canonical_payload().encode("utf-8"), rest[1:]))


def seal_frame(seq: int, digest: Optional[str], events: int, time: float,
               index: int, final: bool = False,
               observed: Dict[str, Any] = NO_OBSERVATIONS) -> bytes:
    return encode_frame(KIND_SEAL, canonical_json({
        **observed, "digest": digest, "events": events, "final": final,
        "index": index, "seq": seq, "time": time}))


def encode_log(records, checkpoints, *, home: str = "home",
               header_extra: Optional[Dict[str, Any]] = None,
               events: int = 0, time: float = 0.0,
               observed: Dict[str, Any] = NO_OBSERVATIONS) -> bytes:
    """A finished in-memory log as one single-segment image: byte for
    byte what a :class:`SegmentedWalWriter` that never rolled leaves
    after ``close()`` — magic, header, the record frames with a seal
    ahead of each checkpoint's record, a final seal carrying the hub's
    ``events`` / ``time`` and closing observation seal."""
    sealed = {checkpoint.seq: (index, checkpoint)
              for index, checkpoint in enumerate(checkpoints)}
    parts = [MAGIC, header_frame(home, 0, 0, header_extra)]
    for record in records:
        if record.seq in sealed:
            index, checkpoint = sealed[record.seq]
            parts.append(seal_frame(
                record.seq, checkpoint.digest,
                checkpoint.events_processed, checkpoint.time, index,
                observed=checkpoint.observed))
        parts.append(record_frame(record))
    parts.append(seal_frame(len(records), None, events, time,
                            len(checkpoints), True, observed))
    return b"".join(parts)


def segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}"


def list_segments(wal_dir: str) -> List[str]:
    """Sorted segment file names in ``wal_dir`` (names only)."""
    return sorted(entry for entry in os.listdir(wal_dir)
                  if entry.startswith(SEGMENT_PREFIX)
                  and entry.endswith(SEGMENT_SUFFIX))


# ---------------------------------------------------------------------------
# writer


class SegmentedWalWriter:
    """Append-only segmented WAL writer for one durable home.

    ``staging=True`` writes into ``wal_dir/.staging-wal`` — recovery
    and migration build the new incarnation's log there and swap it in
    (:meth:`commit_staging`) only after replay verification, so the
    crashed log survives a failed recovery byte-for-byte.
    """

    def __init__(self, wal_dir: str, home: str = "home",
                 segment_max_bytes: int = 256 * 1024,
                 staging: bool = False) -> None:
        if segment_max_bytes < 1024:
            raise ValueError("segment_max_bytes must be >= 1024")
        self.wal_dir = wal_dir
        self.home = home
        self.segment_max_bytes = segment_max_bytes
        self.staging = staging
        self._dir = os.path.join(wal_dir, STAGING_DIR) if staging \
            else wal_dir
        os.makedirs(self._dir, exist_ok=True)
        existing = list_segments(self._dir)
        if existing:
            raise SafeHomeError(
                f"refusing to overwrite existing WAL segments in "
                f"{self._dir!r} (found {existing[0]}); scan or remove "
                f"them first")
        self._handle = None
        self._segment_index = -1
        self._segment_bytes = 0
        self._next_seq = 0
        self.closed = False

    # -- segment management ---------------------------------------------------

    def _roll(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
        self._segment_index += 1
        path = os.path.join(self._dir, segment_name(self._segment_index))
        self._handle = open(path, "wb")
        frame = header_frame(self.home, self._segment_index,
                             self._next_seq)
        self._handle.write(MAGIC + frame)
        self._segment_bytes = len(MAGIC) + len(frame)

    def _write(self, frame: bytes) -> None:
        if self.closed:
            raise SafeHomeError("the WAL writer is closed")
        if self._handle is None or \
                self._segment_bytes >= self.segment_max_bytes:
            self._roll()
        self._handle.write(frame)
        self._segment_bytes += len(frame)

    # -- the durable surface --------------------------------------------------

    def append(self, record: WalRecord) -> None:
        """Append one materialized WAL record (any type, in order)."""
        self._write(record_frame(record))
        self._next_seq = record.seq + 1

    def seal(self, seq: int, digest: Optional[str], events: int,
             time: float, index: int, final: bool = False,
             observed: Dict[str, Any] = NO_OBSERVATIONS) -> None:
        """Seal the log at a checkpoint boundary (or at clean close).

        Everything below ``seq`` is now digest-protected history; a
        torn tail can only ever cost records after the last seal.
        """
        self._write(seal_frame(seq, digest, events, time, index, final,
                               observed))
        self.flush()

    def flush(self) -> None:
        """Event-boundary flush: push buffered bytes to the OS."""
        if self._handle is not None:
            self._handle.flush()

    def close(self, seal_events: int = 0, seal_time: float = 0.0,
              seal_index: int = 0, write_final_seal: bool = True,
              observed: Dict[str, Any] = NO_OBSERVATIONS) -> None:
        """Finish the log: optional final seal, flush, close handles.

        A log whose last frame is a ``final`` seal was closed cleanly;
        the scanner reports anything else as a crash image.
        """
        if self.closed:
            return
        if write_final_seal and self._handle is not None:
            self.seal(seq=self._next_seq, digest=None, events=seal_events,
                      time=seal_time, index=seal_index, final=True,
                      observed=observed)
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
        self.closed = True

    # -- staging swap (recovery / migration) ----------------------------------

    def commit_staging(self) -> None:
        """Replace the live log with this staged incarnation."""
        if not self.staging:
            raise SafeHomeError("commit_staging on a non-staged writer")
        if not self.closed:
            if self._handle is not None:
                self._handle.flush()
                self._handle.close()
                self._handle = None
            self.closed = True
        for name in list_segments(self.wal_dir):
            os.remove(os.path.join(self.wal_dir, name))
        for name in list_segments(self._dir):
            os.replace(os.path.join(self._dir, name),
                       os.path.join(self.wal_dir, name))
        os.rmdir(self._dir)
        # The committed writer keeps appending to the live directory.
        self.staging = False
        self._dir = self.wal_dir
        self.closed = False
        if self._segment_index >= 0:
            path = os.path.join(self._dir,
                                segment_name(self._segment_index))
            self._handle = open(path, "ab")

    def abort_staging(self) -> None:
        """Drop the staged incarnation; the live log is untouched."""
        if not self.staging:
            return
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.closed = True
        if os.path.isdir(self._dir):
            for name in os.listdir(self._dir):
                os.remove(os.path.join(self._dir, name))
            os.rmdir(self._dir)


# ---------------------------------------------------------------------------
# scanner


@dataclass
class SegmentInfo:
    """Per-segment scan summary (names only — reports stay relocatable)."""

    name: str
    index: int
    base_seq: int
    bytes: int
    records: int
    seals: int

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "index": self.index,
                "base_seq": self.base_seq, "bytes": self.bytes,
                "records": self.records, "seals": self.seals}


@dataclass
class WalScan:
    """Everything one pass over a log (a WAL directory's segments, or
    one in-memory image) learned."""

    #: The first segment's header frame, extra keys included.
    header: Optional[Dict[str, Any]] = None
    segments: List[SegmentInfo] = field(default_factory=list)
    records: List[WalRecord] = field(default_factory=list)
    #: Byte offset of each record's frame inside its segment, parallel
    #: to :attr:`records` — ``(segment_name, offset)``.
    record_offsets: List[Tuple[str, int]] = field(default_factory=list)
    seals: List[Dict[str, Any]] = field(default_factory=list)
    truncated: Optional[Dict[str, Any]] = None
    corruption: Optional[CorruptionError] = None
    clean_close: bool = False

    @property
    def home(self) -> Optional[str]:
        return self.header.get("home") if self.header else None

    @property
    def status(self) -> str:
        if self.corruption is not None:
            return "corrupt"
        if self.truncated is not None:
            return "truncated"
        return "clean"

    def last_seal_before_corruption(self) -> Optional[Dict[str, Any]]:
        """The salvage floor: seals always precede the damage point
        in scan order, so the last parsed seal is the last good
        checkpoint boundary."""
        non_final = [s for s in self.seals if not s.get("final")]
        return non_final[-1] if non_final else None


def _decode(payload: bytes) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def _parse_frames(data: bytes, name: str, is_last_segment: bool,
                  scan: WalScan, expected_seq: int) -> int:
    """Parse one segment's frames into ``scan``; returns next seq.

    Sets ``scan.truncated`` (and stops) for the designed crash image;
    sets ``scan.corruption`` (and stops) for real damage.
    """

    def truncate(offset: int, reason: str) -> None:
        # A coherent frame beyond the failure point means this is not
        # a tail at all: appends are sequential, so a genuine crash
        # leaves nothing after the tear.
        resync = _find_frame_after(data, offset + 1)
        if resync is not None:
            corrupt(offset,
                    f"{reason}, but a coherent frame follows at offset "
                    f"{resync} (bytes lost or mangled mid-log)")
            return
        scan.truncated = {"segment": name, "offset": offset,
                          "bytes_dropped": len(data) - offset,
                          "reason": reason}

    def corrupt(offset: int, detail: str, seq=None,
                record_type=None) -> None:
        scan.corruption = CorruptionError(
            detail, path=name, offset=offset,
            seq=expected_seq if seq is None else seq,
            record_type=record_type)

    if not data.startswith(MAGIC):
        if is_last_segment:
            truncate(0, "bad or partial segment magic")
        else:
            corrupt(0, "bad segment magic", record_type="magic")
        return expected_seq

    offset = len(MAGIC)
    saw_header = False
    seg_records = 0
    seg_seals = 0
    base_seq = expected_seq
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < FRAME.size:
            if is_last_segment:
                truncate(offset, "partial frame header at end of log")
            else:
                corrupt(offset, "partial frame header mid-log")
            break
        length, crc, kind = FRAME.unpack_from(data, offset)
        body_start = offset + FRAME.size
        if length > MAX_PAYLOAD:
            if is_last_segment:
                truncate(offset, "insane frame length (torn write)")
            else:
                corrupt(offset, f"insane frame length {length}")
            break
        if body_start + length > len(data):
            if is_last_segment:
                truncate(offset, "frame payload torn at end of log")
            else:
                corrupt(offset, "frame payload truncated mid-log")
            break
        payload = data[body_start:body_start + length]
        frame_end = body_start + length
        if zlib.crc32(bytes([kind]) + payload) & 0xFFFFFFFF != crc:
            # A bad CRC on the very last frame of the log is part of
            # the unsealed crash window; anywhere else it is bit rot.
            if is_last_segment and frame_end == len(data):
                truncate(offset, "crc mismatch on final unsealed frame")
            else:
                corrupt(offset,
                        f"crc mismatch in {_KIND_NAMES.get(kind, kind)} "
                        f"frame",
                        record_type=_KIND_NAMES.get(kind))
            break
        doc = _decode(payload)
        if doc is None:
            corrupt(offset, "undecodable frame payload (valid crc)",
                    record_type=_KIND_NAMES.get(kind))
            break
        if kind == KIND_HEADER:
            if saw_header:
                corrupt(offset, "duplicate segment header",
                        record_type="header")
                break
            saw_header = True
            if doc.get("schema") != SEGMENT_SCHEMA or \
                    doc.get("version") != SEGMENT_VERSION:
                corrupt(offset,
                        f"unsupported segment schema "
                        f"{doc.get('schema')!r} v{doc.get('version')!r}",
                        record_type="header")
                break
            if segment_name(int(doc.get("segment", -1))) != name:
                corrupt(offset,
                        f"segment header claims index "
                        f"{doc.get('segment')!r} in file {name}",
                        record_type="header")
                break
            if doc.get("base_seq") != expected_seq:
                corrupt(offset,
                        f"segment base_seq {doc.get('base_seq')}, "
                        f"expected {expected_seq} (missing segment?)",
                        record_type="header")
                break
            base_seq = doc["base_seq"]
            if scan.header is None:
                scan.header = doc
        elif not saw_header:
            corrupt(offset, "first frame is not a segment header",
                    record_type=_KIND_NAMES.get(kind))
            break
        elif kind == KIND_RECORD:
            try:
                record = WalRecord.from_dict(doc)
            except (KeyError, TypeError, ValueError):
                corrupt(offset, "malformed WAL record dict",
                        record_type="record")
                break
            if record.seq != expected_seq:
                corrupt(offset,
                        f"sequence break: record seq {record.seq}, "
                        f"expected {expected_seq} (duplicated, "
                        f"reordered or dropped frame)",
                        seq=record.seq, record_type=record.type)
                break
            scan.records.append(record)
            scan.record_offsets.append((name, offset))
            seg_records += 1
            expected_seq += 1
        elif kind == KIND_SEAL:
            if doc.get("seq") != expected_seq:
                corrupt(offset,
                        f"seal claims sequence floor {doc.get('seq')}, "
                        f"stream is at {expected_seq}",
                        record_type="seal")
                break
            scan.seals.append(doc)
            seg_seals += 1
            scan.clean_close = bool(doc.get("final")) \
                and is_last_segment and frame_end == len(data)
        else:
            corrupt(offset, f"unknown frame kind {kind}",
                    record_type=str(kind))
            break
        offset = frame_end

    scan.segments.append(SegmentInfo(
        name=name, index=len(scan.segments), base_seq=base_seq,
        bytes=len(data), records=seg_records, seals=seg_seals))
    return expected_seq


def _cross_check_seals(scan: WalScan) -> None:
    """Every checkpoint record must have a matching seal.

    The seal frame is written at capture time, the checkpoint record
    flushes at the next event boundary — so a checkpoint record whose
    seal is absent (or whose state digest or observation seal
    disagrees) means a seal frame was removed or tampered with, not a
    crash window.
    """
    seals_by_index = {s.get("index"): s for s in scan.seals
                      if not s.get("final")}
    for position, record in enumerate(scan.records):
        if record.type != "checkpoint":
            continue
        index = record.payload.get("index")
        seal = seals_by_index.get(index)
        name, offset = scan.record_offsets[position]
        if seal is None:
            scan.corruption = CorruptionError(
                f"checkpoint {index} has no seal frame (missing seal)",
                path=name, offset=offset, seq=record.seq,
                record_type=record.type)
            return
        if any(seal.get(key) != record.payload.get(key)
               for key in ("digest", "obs_digest", "observations")):
            scan.corruption = CorruptionError(
                f"checkpoint {index} digest disagrees with its seal",
                path=name, offset=offset, seq=record.seq,
                record_type=record.type)
            return


def _conclude(scan: WalScan, strict: bool) -> WalScan:
    """The end of every scan: seal cross-check, then the strict raise."""
    if scan.corruption is None:
        _cross_check_seals(scan)
    if strict and scan.corruption is not None:
        raise scan.corruption
    return scan


def scan_log(data: bytes, strict: bool = True) -> WalScan:
    """Scan one single-segment log image held in memory — what
    :func:`encode_log` builds, i.e. one home's slice of a fleet log —
    exactly as :func:`scan_wal_dir` scans that image saved as
    ``wal-000000.seg``."""
    scan = WalScan()
    _parse_frames(data, segment_name(0), True, scan, 0)
    return _conclude(scan, strict)


def scan_wal_dir(wal_dir: str, strict: bool = True) -> WalScan:
    """Read a segmented WAL directory into a classified :class:`WalScan`.

    ``strict=True`` (verify semantics) raises the scan's
    :class:`~repro.errors.CorruptionError`; ``strict=False`` (salvage
    semantics) returns the scan with the damage attached and the good
    prefix intact.  Tail truncation never raises — it is the designed
    crash image, recorded in ``scan.truncated``.
    """
    names = list_segments(wal_dir)
    if not names:
        raise SafeHomeError(f"no WAL segments in {wal_dir!r}")
    scan = WalScan()
    expected_seq = 0
    for position, name in enumerate(names):
        if scan.truncated is not None:
            # Frames after a torn tail would mean the tail was not a
            # tail at all: segments beyond the truncation are damage.
            scan.corruption = CorruptionError(
                f"segment {name} follows a torn tail in "
                f"{scan.truncated['segment']}",
                path=name, offset=0, seq=expected_seq)
            break
        if scan.corruption is not None:
            break
        with open(os.path.join(wal_dir, name), "rb") as handle:
            data = handle.read()
        expected_seq = _parse_frames(
            data, name, is_last_segment=(position == len(names) - 1),
            scan=scan, expected_seq=expected_seq)
    return _conclude(scan, strict)


def split_images(data: bytes, path: str, base: int = 0
                 ) -> List[Tuple[Dict[str, Any], int, int]]:
    """``(header, offset, length)`` of each log image concatenated in
    ``data`` — the integrity pass over a fleet log's bytes.  Every frame
    must be coherent (:func:`_frame_at`); only an image's header frame
    and last frame are decoded.  An image opens with the magic and a
    header and ends exactly on a final seal (it is written whole, so a
    fleet log has no crash window); anything else raises
    :class:`~repro.errors.CorruptionError` naming ``path`` and the
    offset, counted from ``base``."""
    images = []
    offset = 0
    while offset < len(data):
        start = offset
        first = last = None
        if data.startswith(MAGIC, offset):
            offset += len(MAGIC)
            while offset < len(data) and not data.startswith(MAGIC, offset):
                last = _frame_at(data, offset)
                if last is None:
                    raise CorruptionError(
                        "torn frame or crc mismatch", path=path,
                        offset=base + offset)
                first = first or last
                offset = last[2]
        header = seal = None
        if first and first[0] == KIND_HEADER and last[0] == KIND_SEAL:
            header, seal = _decode(first[1]), _decode(last[1])
        if not header or not seal or not seal.get("final"):
            raise CorruptionError(
                "not a whole log image (magic, header frame ... final "
                "seal)", path=path, offset=base + start)
        images.append((header, start, offset - start))
    return images
