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

The digest is defined over ``json.dumps(jsonify(state), sort_keys=True)``.
Sections of the state that grow with the home's history arrive already
encoded, as :class:`~repro.core.controller.Canonical` text, and are
spliced into that string as they are — the bytes digested are the same,
the cost of a checkpoint follows the live state and what changed.
"""

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.core.controller import Canonical, encode_fragment
from repro.hub.durability.wal import jsonify


def _canonical_parts(value: Any, levels: int, parts: List[str]) -> None:
    """Append to ``parts`` the pieces of ``json.dumps(jsonify(value),
    sort_keys=True)``, taking a :class:`Canonical` found within
    ``levels`` dict levels of ``value`` as that subtree's text.  A dict
    is walked here only if it can lead to one; every other subtree goes
    to the C encoder whole."""
    if isinstance(value, Canonical):
        parts.append(value)
    elif levels and isinstance(value, dict) and (levels > 1 or any(
            isinstance(item, Canonical) for item in value.values())):
        members = {str(key): item for key, item in value.items()}
        opener = "{"
        for key in sorted(members):
            parts.append(f"{opener}{encode_fragment(key)}: ")
            _canonical_parts(members[key], levels - 1, parts)
            opener = ", "
        parts.append("}" if members else "{}")
    else:
        parts.append(encode_fragment(jsonify(value)))


def state_digest(state: Dict[str, Any]) -> str:
    """Deterministic digest of a captured state dict (``Canonical``
    values may sit in the state dict and in its ``controller`` dict)."""
    parts: List[str] = []
    _canonical_parts(state, 2, parts)
    digest = hashlib.sha256()
    for part in parts:      # piecewise: the whole text is never built
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


@dataclass
class Checkpoint:
    """Digest evidence of the hub's state at one event boundary."""

    seq: int                    # WAL sequence floor (first seq NOT covered)
    time: float                 # virtual time of capture
    events_processed: int       # simulator event count at capture
    digest: str                 # sha256 over the jsonified state
    observed: Dict[str, Any]    # WriteAheadLog.observed() at capture
