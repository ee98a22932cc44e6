"""Live visibility-model migration for the durable hub.

A migration flips a running home's visibility model (e.g. WV -> EV) at
a checkpoint boundary without discarding its history.  The mechanism
reuses the crash-recovery machinery (docs/durability.md): the hub
forces a checkpoint (digest-pinned boundary evidence), rebuilds its
stack with the *target* model and deterministically replays every
durable input record under the new policy.  Because the WAL's inputs
plus the seed are a complete recipe for re-execution, the migrated hub
is indistinguishable from one that had been started under the target
model from the beginning — tests/test_migration.py pins byte-identical
final reports across the whole model grid.

The :class:`MigrationReport` here is the deterministic record of what
one migration did; :meth:`SafeHome.migrate` returns it and appends it
to ``SafeHome.migrations``.
"""

from dataclasses import dataclass
from typing import Any, Dict


@dataclass
class MigrationReport:
    """What one live model migration did."""

    from_model: str
    to_model: str
    at_time: float              # virtual time of the boundary checkpoint
    at_events: int              # simulator events at the boundary
    checkpoint_digest: str      # digest of the boundary checkpoint
    replayed_records: int       # input records re-applied
    replayed_events: int        # simulator events re-executed
    resumed_crashes: int        # crashes that (re)fired during replay

    def row(self) -> Dict[str, Any]:
        """Deterministic summary."""
        return {
            "from_model": self.from_model,
            "to_model": self.to_model,
            "at_time": round(self.at_time, 6),
            "at_events": self.at_events,
            "checkpoint_digest": self.checkpoint_digest,
            "replayed_records": self.replayed_records,
            "replayed_events": self.replayed_events,
            "resumed_crashes": self.resumed_crashes,
        }
