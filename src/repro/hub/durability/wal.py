"""The hub's write-ahead log (WAL).

SafeHome's reliability argument rests on the controller being able to
reconstruct in-flight routine state across restarts (the paper's EV
lineage table is explicitly designed to survive them).  The WAL is the
durable substrate that makes the *whole hub* restartable: a totally
ordered, JSON-serializable journal of

* **inputs** — everything the outside world told the hub (devices
  added, routines registered, invocations, failure plans, run calls,
  scheduled crashes).  Together with the hub's seed they are a complete
  recipe for deterministic re-execution.
* **observations** — everything the hub decided or witnessed while
  executing (admission decisions, lock grants, command dispatch/ack,
  lineage mutations, detections, commits/aborts).  Observations are
  *redo evidence*: replay re-derives every one of them from the inputs,
  so the log keeps none.  They are folded, in order, into a rolling
  SHA-256 beside a count (:meth:`WriteAheadLog.observed`), each as its
  row bytes from :func:`repro.core.digest.encode`, the checkpoint
  digest's leaf encoder.  That pair is sealed wherever evidence is
  written — every checkpoint, every ``crash`` marker, the final seal —
  for replay to regenerate and compare.  Only ``checkpoint``
  observations also become records.

Records are plain dataclasses held in memory; their one serialized
form is the CRC-framed log image of
:mod:`repro.hub.durability.storage`.  Record payload values pass
through :func:`jsonify` so arbitrary device states never make the log
unserializable.
"""

import hashlib
import json
import marshal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.digest import encode

#: Record types that recovery re-applies (the durable inputs).
INPUT_TYPES = frozenset({
    "home-created",
    "device-added",
    "routine-registered",
    "failure-planned",
    "invoked",
    "streams-attached",
    "cancelled",
    "crash-scheduled",
    "crash-cancelled",
    "run",
    "recovery",
})

#: Entry types regenerated by replay and verified against the log's
#: sealed digests; ``checkpoint`` is the only one that is also a record.
OBSERVATION_TYPES = frozenset({
    "routine-submitted",
    "routine-admitted",
    "admission",
    "lock-granted",
    "command-dispatched",
    "command-acked",
    "lineage-placed",
    "lineage-acquired",
    "lineage-released",
    "lineage-compacted",
    "detection",
    "routine-committed",
    "routine-aborted",
    "checkpoint",
})

#: Markers appended by the crash machinery itself (neither replayed nor
#: verified; regenerated when the crash fires again during replay).
#: ``migration`` marks the start of a post-migration log: records after
#: it were produced under the target visibility model.
MARKER_TYPES = frozenset({"crash", "migration"})


_PLAIN_SCALARS = frozenset({type(None), bool, int, float, str})


def jsonify(value: Any) -> Any:
    """Make ``value`` JSON-serializable, deterministically.

    Scalars pass through; containers recurse; anything else (custom
    device states, sentinels) becomes its ``repr`` — lossy but stable,
    which is all the log's digests and comparisons need.  Most of what
    the log holds is plain scalars inside dicts and lists, so those are
    recognised by exact type without a call each.
    """
    if type(value) in _PLAIN_SCALARS:
        return value
    if isinstance(value, dict):
        return {str(key): item if type(item) in _PLAIN_SCALARS
                else jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _PLAIN_SCALARS else jsonify(item)
                for item in value]
    if isinstance(value, (bool, int, float, str)):      # scalar subclasses
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(item) for item in value)
    return repr(value)


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` — the
#: text form of every frame payload — without an encoder per call.
encode_compact = json.JSONEncoder(sort_keys=True,
                                  separators=(",", ":")).encode


@dataclass
class WalRecord:
    """One typed entry in the write-ahead log."""

    seq: int
    time: float                 # virtual time at append
    type: str
    payload: Dict[str, Any] = field(default_factory=dict)
    # Canonical payload JSON, encoded once: the on-disk frame is
    # assembled from it and every identity() comparison reuses it.
    _canonical: Optional[str] = field(default=None, init=False,
                                      repr=False, compare=False)

    @property
    def is_input(self) -> bool:
        return self.type in INPUT_TYPES

    def canonical_payload(self) -> str:
        """Deterministic payload encoding (sorted keys, the frame
        format's compact separators), memoized on the record."""
        canonical = self._canonical
        if canonical is None:
            canonical = self._canonical = encode_compact(
                jsonify(self.payload))
        return canonical

    def identity(self) -> tuple:
        """What replay verification compares (seq excluded: a healing
        replay journals recoveries the log never had)."""
        return (self.type, self.time, self.canonical_payload())

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "time": self.time, "type": self.type,
                "payload": jsonify(self.payload)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WalRecord":
        return cls(seq=int(data["seq"]), time=float(data["time"]),
                   type=str(data["type"]),
                   payload=dict(data.get("payload", {})))


class WriteAheadLog:
    """Append-only typed record log with an observation digest.

    The log holds what replay cannot re-derive — inputs, markers — and
    the ``checkpoint`` records.  Every other observation is *folded*:
    the hub's hot path hands ``(type, payload, time)`` triples to
    :meth:`buffer_observation`, and :meth:`flush` (once per simulator
    event boundary, and before any read or append) feeds a rolling
    SHA-256 the bytes ``encode((type, time, payload))`` of each entry
    of the batch, in order.  Those bytes are a function of the entry
    alone, so the digest depends on the observations and their order
    only, never on where the flush boundaries fell.  Sequence numbers
    count records; any input/marker append flushes first, so a
    ``checkpoint`` record sits exactly where its observation was
    emitted.
    """

    def __init__(self) -> None:
        self._records: List[WalRecord] = []
        #: Buffered observations awaiting the next event boundary.
        self._pending: List[Tuple[str, float, Dict[str, Any]]] = []
        self._next_seq = 0
        self._observations = hashlib.sha256()
        #: Observations folded so far, ``checkpoint`` ones included.
        self.observation_count = 0
        #: Optional durable sink: called with each record exactly once,
        #: at materialization (flush/append/copy), in sequence order —
        #: so an on-disk log sees the same total order as memory,
        #: regardless of which code path triggered the flush.
        self.sink = None

    @property
    def records(self) -> List[WalRecord]:
        """The materialized log (drains the observation buffer)."""
        self.flush()
        return self._records

    @property
    def next_seq(self) -> int:
        """The sequence number the next record will get — a checkpoint's
        floor (drains the observation buffer, which it must cover)."""
        self.flush()
        return self._next_seq

    def observed(self) -> Dict[str, Any]:
        """The observation seal — the rolling digest over every
        observation emitted so far, and their count: what each piece of
        evidence (checkpoint, ``crash`` marker, final seal) carries."""
        self.flush()
        return {"obs_digest": self._observations.hexdigest(),
                "observations": self.observation_count}

    def buffer_observation(self, type_: str, payload: Dict[str, Any],
                           time: float) -> None:
        """Queue one observation for the next :meth:`flush`.

        Payload values are rows: exact ints, floats, bools and strs, and
        lists of ints, in an order the hub chose — no sets, whose order
        is the hash table's, and one container type, because the fold
        encodes a tuple and a list apart.  A leaf ``marshal`` rejects
        is folded as its ``repr``.
        """
        if type_ not in OBSERVATION_TYPES:
            raise ValueError(f"not an observation type: {type_!r}")
        self._pending.append((type_, time, payload))

    def flush(self) -> int:
        """Fold the buffered observations into the digest (one encoder
        call for the batch) and materialize the ``checkpoint`` ones.

        Returns the number of entries consumed.  Called by the
        durability manager at every simulator event boundary and
        implicitly by any read or input append.
        """
        pending = self._pending
        if not pending:
            return 0
        self._pending = []
        try:
            # Version 2 writes no back-references, so past the list's
            # 5-byte header ("[" + u32 length) the bytes are each
            # entry's own encode(), back to back.
            rows = memoryview(marshal.dumps(pending, 2))[5:]
        except ValueError:
            # A leaf marshal rejects: fall back entry by entry, so only
            # the entry holding it is encoded with repr leaves.
            rows = b"".join(map(encode, pending))
        self._observations.update(rows)
        self.observation_count += len(pending)
        for type_, time, payload in pending:
            if type_ == "checkpoint":
                self._materialize(WalRecord(
                    seq=self._next_seq, time=time, type=type_,
                    payload=payload))
        return len(pending)

    def _materialize(self, record: WalRecord) -> WalRecord:
        self._next_seq += 1
        self._records.append(record)
        if self.sink is not None:
            self.sink(record)
        return record

    def append(self, type_: str, payload: Dict[str, Any],
               time: float) -> WalRecord:
        if type_ not in INPUT_TYPES and type_ not in MARKER_TYPES:
            raise ValueError(f"not an input or marker type: {type_!r}")
        # next_seq keeps total order: buffered observations precede
        # this record exactly as they were emitted.
        return self._materialize(WalRecord(
            seq=self.next_seq, time=time, type=type_, payload=payload))

    def copy_record(self, record: WalRecord) -> WalRecord:
        """Re-append a record from a previous incarnation's log (used by
        recovery to carry the input history forward), assigning a fresh
        sequence number but preserving time/type/payload."""
        fresh = WalRecord(seq=self.next_seq, time=record.time,
                          type=record.type, payload=dict(record.payload))
        # A shallow copy encodes identically: share the memoized form.
        fresh._canonical = record._canonical
        return self._materialize(fresh)

    def inputs(self) -> List[WalRecord]:
        return [r for r in self.records if r.is_input]
