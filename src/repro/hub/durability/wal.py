"""The hub's write-ahead log (WAL).

SafeHome's reliability argument rests on the controller being able to
reconstruct in-flight routine state across restarts (the paper's EV
lineage table is explicitly designed to survive them).  The WAL is the
durable substrate that makes the *whole hub* restartable: a totally
ordered, JSON-serializable journal of

* **inputs** — everything the outside world told the hub (devices
  added, routines registered, invocations, failure plans, run calls,
  scheduled crashes).  Inputs are never compacted: together with the
  hub's seed they are a complete recipe for deterministic re-execution.
* **observations** — everything the hub decided or witnessed while
  executing (admission decisions, lock grants, command dispatch/ack,
  lineage mutations, detections, commits/aborts).  Observations are
  *redo evidence*: recovery re-derives them by replaying the inputs and
  cross-checks the regenerated stream against the log, so a divergence
  (lost record, non-determinism) is detected rather than silently
  accepted.  Observations may be compacted away below a checkpoint.

Records are plain dataclasses held in memory; their one serialized
form is the CRC-framed log image of
:mod:`repro.hub.durability.storage`.  Payload values pass through
:func:`jsonify` so arbitrary device states never make the log
unserializable.
"""

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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

#: Record types regenerated by replay and verified against the log.
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
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(item) for item in value)
    if isinstance(value, (bool, int, float, str)):      # scalar subclasses
        return value
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
    # assembled from it and every identity() comparison reuses it
    # (recovery verifies each observation at least twice: the logged
    # record and its replayed twin).
    _canonical: Optional[str] = field(default=None, init=False,
                                      repr=False, compare=False)

    @property
    def is_input(self) -> bool:
        return self.type in INPUT_TYPES

    @property
    def is_observation(self) -> bool:
        return self.type in OBSERVATION_TYPES

    def canonical_payload(self) -> str:
        """Deterministic payload encoding (sorted keys, the frame
        format's compact separators), memoized on the record."""
        canonical = self._canonical
        if canonical is None:
            canonical = self._canonical = encode_compact(
                jsonify(self.payload))
        return canonical

    def identity(self) -> tuple:
        """What replay verification compares (seq excluded: compaction
        and copied inputs shift absolute sequence numbers)."""
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
    """Append-only typed record log with checkpoint compaction.

    Observation records are *buffered*: the hub's hot path hands
    ``(type, payload, time)`` triples to :meth:`buffer_observation` and
    the durability manager drains them once per simulator event
    boundary (:meth:`flush`), which batches record construction away
    from the per-decision path.  Sequence numbers are assigned at flush
    in buffer order, and any input/marker append flushes first, so the
    materialized log is record-for-record identical to the old
    append-immediately behavior.  Every read surface (:attr:`records`,
    iteration, views) flushes before exposing records.
    """

    def __init__(self) -> None:
        self._records: List[WalRecord] = []
        #: Buffered observations awaiting the next event boundary.
        self._pending: List[Tuple[str, Dict[str, Any], float]] = []
        self._next_seq = 0
        #: Observation records dropped by :meth:`compact` (they were
        #: covered by a checkpoint digest); kept as a count so stats
        #: stay truthful after compaction.
        self.compacted_observations = 0
        #: Optional durable sink: called with each record exactly once,
        #: at materialization (flush/append/copy), in sequence order —
        #: so an on-disk log sees the same total order as memory,
        #: regardless of which code path triggered the flush.
        #: Compaction never reaches the sink: disk keeps full history.
        self.sink = None

    @property
    def records(self) -> List[WalRecord]:
        """The materialized log (drains the observation buffer)."""
        if self._pending:
            self.flush()
        return self._records

    @property
    def next_seq(self) -> int:
        """The sequence number the next record will get — a checkpoint's
        floor (drains the observation buffer, which it must cover)."""
        if self._pending:
            self.flush()
        return self._next_seq

    def __len__(self) -> int:
        return len(self._records) + len(self._pending)

    def __iter__(self):
        return iter(self.records)

    def buffer_observation(self, type_: str, payload: Dict[str, Any],
                           time: float) -> None:
        """Queue one observation for the next :meth:`flush`."""
        if type_ not in OBSERVATION_TYPES:
            raise ValueError(f"not an observation type: {type_!r}")
        self._pending.append((type_, payload, time))

    def flush(self) -> int:
        """Materialize buffered observations (batch, in buffer order).

        Returns the number of records appended.  Called by the
        durability manager at every simulator event boundary and
        implicitly by any read or input append.
        """
        pending = self._pending
        if not pending:
            return 0
        self._pending = []
        seq = self._next_seq
        records = self._records
        sink = self.sink
        for type_, payload, time in pending:
            record = WalRecord(seq=seq, time=time, type=type_,
                               payload=payload)
            seq += 1
            records.append(record)
            if sink is not None:
                sink(record)
        self._next_seq = seq
        return len(pending)

    def append(self, type_: str, payload: Dict[str, Any],
               time: float) -> WalRecord:
        if type_ not in INPUT_TYPES and type_ not in OBSERVATION_TYPES \
                and type_ not in MARKER_TYPES:
            raise ValueError(f"unknown WAL record type {type_!r}")
        if self._pending:
            # Keep total order: buffered observations precede this
            # record exactly as they were emitted.
            self.flush()
        record = WalRecord(seq=self._next_seq, time=time, type=type_,
                           payload=payload)
        self._next_seq += 1
        self._records.append(record)
        if self.sink is not None:
            self.sink(record)
        return record

    def copy_record(self, record: WalRecord) -> WalRecord:
        """Re-append a record from a previous incarnation's log (used by
        recovery to carry the input history forward), assigning a fresh
        sequence number but preserving time/type/payload."""
        if self._pending:
            self.flush()
        fresh = WalRecord(seq=self._next_seq, time=record.time,
                          type=record.type, payload=dict(record.payload))
        if record._canonical is not None:
            # Shallow-copied payloads encode identically — share the
            # memoized canonical form instead of re-encoding.
            fresh._canonical = record._canonical
        self._next_seq += 1
        self._records.append(fresh)
        if self.sink is not None:
            self.sink(fresh)
        return fresh

    # -- views ----------------------------------------------------------------

    def inputs(self) -> List[WalRecord]:
        return [r for r in self.records if r.is_input]

    def observations(self) -> List[WalRecord]:
        return [r for r in self.records if r.is_observation]

    def stats(self) -> Dict[str, int]:
        """Record counts by type (plus compaction bookkeeping)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.type] = counts.get(record.type, 0) + 1
        counts["_total"] = len(self.records)
        counts["_compacted"] = self.compacted_observations
        return counts

    # -- compaction ------------------------------------------------------------

    def compact(self, below_seq: int) -> int:
        """Drop observation records with ``seq < below_seq``.

        Only safe below a checkpoint: the checkpoint's state digest
        stands in for the dropped redo evidence.  Inputs are never
        dropped.  Returns the number of records removed.
        """
        if self._pending:
            self.flush()
        kept = [r for r in self._records
                if not (r.is_observation and r.seq < below_seq)]
        removed = len(self._records) - len(kept)
        self._records = kept
        self.compacted_observations += removed
        return removed
