"""Hub checkpoints: periodic digests of every stateful layer.

A checkpoint is taken at an event boundary over the full recoverable
state of the hub: device states (and up/down flags), the execution
core's :class:`~repro.core.execution.locks.LockTable` and per-device
FIFO queues, and the active controller's model-specific state — EV
lineage entries, PSV/GSV admission holdings, OCC read/write sets — via
the ``snapshot_state()`` contract every controller implements.

What is kept of that state is its SHA-256 digest, nothing else: every
way a log becomes a hub again re-executes the inputs from the start
(:mod:`repro.hub.durability.replay`), so no path restores from a
checkpoint.  Checkpoints serve three roles:

* **observation seal** — the log keeps no observation records; each
  checkpoint carries the WAL's rolling observation digest and count at
  capture (:attr:`Checkpoint.observed`);
* **replay verification** — recovery re-executes the input log, and the
  regenerated checkpoints' state digests and observation seals must
  match the logged ones, which locates a divergence to one checkpoint
  interval;
* **measurement** — the `recovery_sweep` benchmark sweeps the
  checkpoint interval against recovery time and WAL length.

The digest is a two-level tree: SHA-256 over the ``marshal`` bytes of
the ``(name, part digest)`` pairs in name order.  A live part is plain
rows, digested whole (:func:`repro.core.digest.part_digest`); a part
that grows with the home's history arrives as its 32-byte digest,
kept incrementally by its layer (:mod:`repro.core.digest`), so a
checkpoint costs the live state and what changed, not the history.
"""

import hashlib
from dataclasses import dataclass
from typing import Any, Dict

from repro.core.digest import encode, part_digest


def state_digest(state: Dict[str, Any]) -> str:
    """Deterministic digest of a captured state: part name -> rows, or
    the part's digest (``bytes``)."""
    return hashlib.sha256(encode(tuple(
        (name, part_digest(part)) for name, part in sorted(state.items())
    ))).hexdigest()


@dataclass
class Checkpoint:
    """Digest evidence of the hub's state at one event boundary."""

    seq: int                    # WAL sequence floor (first seq NOT covered)
    time: float                 # virtual time of capture
    events_processed: int       # simulator event count at capture
    digest: str                 # sha256 over the part digests
    observed: Dict[str, Any]    # WriteAheadLog.observed() at capture
