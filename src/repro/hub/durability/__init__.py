"""Durable hub: write-ahead log, checkpoints, crash/restart recovery.

See ``docs/durability.md`` for the record taxonomy, checkpoint format,
the on-disk frame layout and the per-model recovery policy table.
"""

from repro.hub.durability.checkpoint import Checkpoint, state_digest
from repro.hub.durability.faults import (FAULT_KINDS, inject_fault,
                                         inject_fleet_fault)
from repro.hub.durability.fsck import FsckReport, fsck_path
from repro.hub.durability.recovery import (RECOVERY_MODES, CrashPlan,
                                           DurabilityConfig,
                                           DurabilityManager, RecoveryReport)
from repro.hub.durability.storage import (SegmentedWalWriter, WalScan,
                                          scan_wal_dir)
from repro.hub.durability.wal import (INPUT_TYPES, MARKER_TYPES,
                                      OBSERVATION_TYPES, WalRecord,
                                      WriteAheadLog, jsonify)

__all__ = [
    "WriteAheadLog",
    "WalRecord",
    "INPUT_TYPES",
    "OBSERVATION_TYPES",
    "MARKER_TYPES",
    "jsonify",
    "Checkpoint",
    "state_digest",
    "DurabilityConfig",
    "DurabilityManager",
    "CrashPlan",
    "RecoveryReport",
    "RECOVERY_MODES",
    "SegmentedWalWriter",
    "WalScan",
    "scan_wal_dir",
    "FAULT_KINDS",
    "inject_fault",
    "inject_fleet_fault",
    "FsckReport",
    "fsck_path",
]
