"""The durable hub's journal: config, crash plans, reports, manager.

How a crashed hub is rebuilt from what is journaled here — verified
deterministic replay — lives in :mod:`repro.hub.durability.replay`.
Two recovery modes decide the fate of routines that were running when
the hub died (``DurabilityConfig.recovery``):

* ``"replay"`` (default) — every in-flight routine resumes exactly
  where it was; the recovered hub's final report is byte-identical to
  an uninterrupted run.
* ``"policy"`` — each visibility model applies its own rule via
  ``Controller.hub_recovery_action``: strict models (GSV/S-GSV/PSV)
  abort routines caught mid-execution because a strict serialization
  cannot span an outage, while WV, EV and OCC re-issue (WV promises
  nothing, EV's lineage reconstructs every in-flight position, OCC
  re-validates at its finish point).
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.hub.durability.checkpoint import Checkpoint, state_digest
from repro.hub.durability.wal import WriteAheadLog

#: Recovery modes (see module docstring).
RECOVERY_MODES = ("replay", "policy")


@dataclass
class DurabilityConfig:
    """Tunables of the durable hub."""

    #: Take a checkpoint every N observations (0 disables).
    checkpoint_every: int = 64
    #: Default recovery mode for :meth:`SafeHome.recover`.
    recovery: str = "replay"

    def __post_init__(self) -> None:
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(f"unknown recovery mode {self.recovery!r}; "
                             f"pick from {RECOVERY_MODES}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class CrashPlan:
    """A scheduled hub crash: at a virtual time or an event index.

    ``after_events`` counts *total* simulator events (cumulative across
    run calls), which stays meaningful across recoveries because replay
    re-processes exactly the pre-crash events.
    """

    at: Optional[float] = None
    after_events: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.at is None) == (self.after_events is None):
            raise ValueError(
                "exactly one of at= / after_events= must be given")
        if self.after_events is not None and self.after_events < 1:
            raise ValueError("after_events must be >= 1")

    def to_payload(self) -> Dict[str, Any]:
        return {"at": self.at, "after_events": self.after_events}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CrashPlan":
        return cls(at=payload.get("at"),
                   after_events=payload.get("after_events"))


@dataclass
class RecoveryReport:
    """What one recovery did, and what it cost."""

    mode: str
    crash_time: float
    crash_events: int
    replayed_events: int        # simulator events re-executed
    replayed_records: int       # observations the verified seals cover
    wal_records: int            # journal entries, folded or framed
    checkpoints_verified: int
    resumed: List[int] = field(default_factory=list)    # routine ids
    aborted: List[int] = field(default_factory=list)    # routine ids
    wall_s: float = 0.0         # wall-clock recovery time (measurement)
    #: Present only after ``recover(mode="salvage")``: what the salvage
    #: cut (floor seq / events, dropped record counts, oracle verdict).
    #: ``None`` keeps :meth:`row` byte-identical for replay/policy.
    salvage: Optional[Dict[str, Any]] = None

    def row(self) -> Dict[str, Any]:
        """Deterministic summary (wall time excluded — see to_row_timed)."""
        row = {
            "mode": self.mode,
            "crash_time": round(self.crash_time, 6),
            "crash_events": self.crash_events,
            "replayed_events": self.replayed_events,
            "replayed_records": self.replayed_records,
            "wal_records": self.wal_records,
            "checkpoints_verified": self.checkpoints_verified,
            "resumed": list(self.resumed),
            "aborted": list(self.aborted),
        }
        if self.salvage is not None:
            row["salvage"] = dict(self.salvage)
        return row


class DurabilityManager:
    """WAL + checkpoints for one hub; the controller's journal target.

    The manager never drives execution: controllers call
    :meth:`observe`, the facade records inputs via :meth:`record_input`,
    and the simulator's post-event hook gives checkpoints their
    event-boundary timing.  ``capture_state``/``events``/``now`` are
    callables supplied by the owning :class:`SafeHome` so the manager
    survives the facade rebuilding its stack during recovery.
    """

    def __init__(self, config: DurabilityConfig, capture_state,
                 events, now) -> None:
        self.config = config
        self.wal = WriteAheadLog()
        self.checkpoints: List[Checkpoint] = []
        self._capture_state = capture_state
        self._events = events
        self._now = now
        self._observations_since_checkpoint = 0
        self._checkpoint_due = False
        #: Optional on-disk segmented writer (storage.SegmentedWalWriter).
        #: Attached by SafeHome when ``wal_dir`` is given; the manager
        #: streams records through ``wal.sink``, seals at checkpoints
        #: and flushes at event boundaries.
        self.storage = None

    def attach_storage(self, storage) -> None:
        """Stream every materialized record into ``storage`` and give
        checkpoints their on-disk seal frames."""
        self.storage = storage
        self.wal.sink = storage.append

    # -- journal protocol (called by controllers and the facade) --------------

    def record_input(self, type_: str,
                     payload: Dict[str, Any]) -> None:
        self.wal.append(type_, payload, self._now())

    def observe(self, type_: str, payload: Dict[str, Any],
                time: float) -> None:
        # Buffered: the WAL folds the observation into its digest at
        # the next event boundary — see on_event_processed — so the
        # hub's per-decision path only appends a tuple.
        self.wal.buffer_observation(type_, payload, time)
        if self.config.checkpoint_every:
            self._observations_since_checkpoint += 1
            if self._observations_since_checkpoint >= \
                    self.config.checkpoint_every:
                # Capture is deferred to the next event boundary so the
                # snapshot never sees a half-applied event.
                self._checkpoint_due = True

    def mark_crash(self, plan_payload: Dict[str, Any]) -> None:
        self.wal.append("crash", {
            **plan_payload,
            "time": self._now(),
            "events": self._events(),
            **self.wal.observed(),
        }, self._now())

    # -- checkpointing ---------------------------------------------------------

    def on_event_processed(self) -> None:
        """Simulator post-event hook: fold the observation buffer (one
        encoder call per event boundary) and take due checkpoints
        here."""
        self.wal.flush()
        if self._checkpoint_due:
            self._checkpoint_due = False
            self.take_checkpoint()
        elif self.storage is not None:
            # Event-boundary durability: the on-disk tail is torn only
            # ever at an event boundary (checkpoints flush via seal()).
            self.storage.flush()

    def take_checkpoint(self) -> Checkpoint:
        self._observations_since_checkpoint = 0
        # The state is digested here and dropped.
        checkpoint = Checkpoint(
            seq=self.wal.next_seq, time=self._now(),
            events_processed=self._events(),
            digest=state_digest(self._capture_state()),
            observed=self.wal.observed())
        self.checkpoints.append(checkpoint)
        if self.storage is not None:
            # The seal lands *before* the checkpoint record (which
            # materializes at the next flush with this seq), so the
            # scanner's floor invariant is seal.seq == next record.
            self.storage.seal(
                seq=checkpoint.seq, digest=checkpoint.digest,
                events=checkpoint.events_processed, time=checkpoint.time,
                index=len(self.checkpoints) - 1,
                observed=checkpoint.observed)
        # In-log evidence, compared whole with the one replay
        # regenerates; an observation too (folded, and counted).
        self.observe("checkpoint", {
            "digest": checkpoint.digest,
            "events": checkpoint.events_processed,
            "index": len(self.checkpoints) - 1,
            **checkpoint.observed,
        }, self._now())
        return checkpoint
