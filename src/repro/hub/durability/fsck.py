"""``repro fsck``: offline verification and salvage of durable logs.

The filesystem-checker for this repo's two durable artifacts:

* **single-home WAL directories** — segmented CRC-framed logs written
  by ``SafeHome(durability=True, wal_dir=...)``;
* **fleet spool directories** — ``fleet-wal.jsonl`` plus its byte
  offset index, written by :func:`repro.fleet.spool.merge_spool`.

A home check runs the full pipeline: :func:`~repro.hub.durability.
storage.scan_wal_dir` classifies the bytes (clean / crash-consistent
torn tail / corrupt), then the surviving records are *replayed and
verified* by the shared engine (:mod:`repro.hub.durability.replay`:
:func:`~repro.hub.durability.replay.build_home` +
:meth:`SafeHome.salvage_records`) and the congruence oracle passes over
the replayed home.  With ``salvage=True`` a corrupt log is additionally
cut at its last good checkpoint and salvaged.

Exit-code contract (classic fsck convention, pinned by tests):

* ``0`` — healthy: clean log, or a crash-consistent torn tail whose
  surviving prefix replays and verifies;
* ``1`` — damage found and corrected: corruption detected, salvage
  produced an oracle-clean home;
* ``2`` — damage found and NOT corrected: corruption without salvage,
  a salvage that failed verification, or a prefix replay divergence.

Every report field is deterministic (virtual times, relative segment
names, no wall clocks), so ``tests/fixtures/fsck`` pins byte-exact
expected reports for golden damaged logs.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import CorruptionError, RecoveryError, SafeHomeError
from repro.hub.durability.replay import build_home
from repro.hub.durability.storage import (SEGMENT_PREFIX, SEGMENT_SUFFIX,
                                          WalScan, scan_wal_dir)

REPORT_SCHEMA = "repro-fsck-report/1"


@dataclass
class FsckReport:
    """Outcome of one ``repro fsck`` pass over one artifact."""

    target: str                       # "home" | "fleet"
    path: str
    status: str                       # "clean" | "truncated" | "corrupt"
    clean_close: bool = False
    home: Optional[str] = None
    segments: List[Dict[str, Any]] = field(default_factory=list)
    records: int = 0
    seals: int = 0
    truncated: Optional[Dict[str, Any]] = None
    corruption: Optional[Dict[str, Any]] = None
    verify: Optional[Dict[str, Any]] = None
    salvage: Optional[Dict[str, Any]] = None
    fleet: Optional[Dict[str, Any]] = None
    #: The home rebuilt by verification/salvage (not serialized).
    replayed_home: Any = None

    def exit_code(self) -> int:
        if self.status in ("clean", "truncated"):
            if self.verify is not None and not self.verify["ok"]:
                return 2
            return 0
        if self.salvage is not None and self.salvage["ok"]:
            oracle = self.salvage.get("oracle")
            if oracle is None or oracle["ok"]:
                return 1
        return 2

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": REPORT_SCHEMA,
            "target": self.target,
            "status": self.status,
            "exit_code": self.exit_code(),
        }
        if self.target == "home":
            data.update({
                "clean_close": self.clean_close,
                "home": self.home,
                "segments": self.segments,
                "records": self.records,
                "seals": self.seals,
                "truncated": self.truncated,
                "corruption": self.corruption,
                "verify": self.verify,
                "salvage": self.salvage,
            })
        else:
            data["fleet"] = self.fleet
            data["corruption"] = self.corruption
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _oracle_verdict(home) -> Optional[Dict[str, Any]]:
    """Congruence-oracle pass over a replayed home (None: no run)."""
    if home.last_result is None or home.initial is None:
        return None
    from repro.metrics.oracle import check_run

    return check_run(home.last_result, home.initial).to_dict()


def _replay_and_verify(scan: WalScan, bounded: bool) -> tuple:
    """(result_dict, replayed_home_or_None) for one scanned log."""
    try:
        home = build_home(scan.records)
        report = home.salvage_records(scan.records, bounded=bounded)
        if bounded:
            # Salvage leaves the hub at the checkpoint boundary with
            # the event queue intact; life resumes from there.  Run to
            # the natural end so the oracle judges a finished run, not
            # a mid-flight snapshot.
            home.run()
    except (CorruptionError, RecoveryError, SafeHomeError,
            ValueError, KeyError) as exc:
        return ({"ok": False, "error": str(exc), "oracle": None,
                 "replayed_events": 0, "row": None}, None)
    return ({"ok": True, "error": None,
             "oracle": _oracle_verdict(home),
             "replayed_events": report.replayed_events,
             "row": report.row()}, home)


def fsck_home_dir(wal_dir: str, salvage: bool = False) -> FsckReport:
    """Check (and optionally salvage) one segmented home WAL dir."""
    scan = scan_wal_dir(wal_dir, strict=False)
    report = FsckReport(
        target="home", path=wal_dir, status=scan.status,
        clean_close=scan.clean_close, home=scan.home,
        segments=[seg.to_dict() for seg in scan.segments],
        records=len(scan.records), seals=len(scan.seals),
        truncated=scan.truncated,
        corruption=scan.corruption.to_dict()
        if scan.corruption is not None else None)
    if scan.status in ("clean", "truncated"):
        # Full replay verification: every surviving input re-applied,
        # every surviving digest re-checked, oracle on the result.
        report.verify, report.replayed_home = _replay_and_verify(
            scan, bounded=False)
    elif salvage:
        report.salvage, report.replayed_home = _replay_and_verify(
            scan, bounded=True)
        floor = scan.last_seal_before_corruption()
        if report.salvage["ok"]:
            report.salvage["floor"] = (
                {"seq": floor["seq"], "events": floor["events"]}
                if floor is not None else None)
    return report


def fsck_fleet_dir(wal_dir: str) -> FsckReport:
    """Verify a merged fleet spool (``fleet-wal.jsonl`` + index).

    Structural check per home: index entry in bounds, line decodes,
    identity matches, record counts agree with the index summary.
    Damage surfaces as the typed ``CorruptionError`` the spool loader
    raises (satellite: never a raw ``json.JSONDecodeError``).
    """
    from repro.fleet.spool import INDEX_NAME, MERGED_NAME, load_spooled_home

    index_path = os.path.join(wal_dir, INDEX_NAME)
    merged_path = os.path.join(wal_dir, MERGED_NAME)
    if not os.path.exists(index_path):
        raise SafeHomeError(f"no {INDEX_NAME} in {wal_dir!r}")
    with open(index_path, "r", encoding="utf-8") as handle:
        index = json.load(handle)
    fleet: Dict[str, Any] = {
        "homes": index.get("homes"),
        "wal_records": index.get("wal_records"),
        "verified_homes": 0,
        "verified_records": 0,
        "merged_bytes": os.path.getsize(merged_path)
        if os.path.exists(merged_path) else None,
    }
    report = FsckReport(target="fleet", path=wal_dir, status="clean",
                        fleet=fleet)
    try:
        for key in sorted(index.get("index", {}), key=int):
            record = load_spooled_home(wal_dir, int(key))
            fleet["verified_homes"] += 1
            fleet["verified_records"] += len(record["wal"])
        if fleet["verified_homes"] != fleet["homes"]:
            raise CorruptionError(
                f"index names {fleet['homes']} homes but "
                f"{fleet['verified_homes']} were loadable",
                path=index_path)
        if fleet["wal_records"] is not None and \
                fleet["verified_records"] != fleet["wal_records"]:
            raise CorruptionError(
                f"index sums {fleet['wal_records']} WAL records, merged "
                f"log holds {fleet['verified_records']}",
                path=index_path)
    except CorruptionError as exc:
        report.status = "corrupt"
        report.corruption = exc.to_dict()
    return report


def fsck_path(path: str, salvage: bool = False) -> FsckReport:
    """Dispatch on artifact type: home WAL dir or fleet spool dir."""
    from repro.fleet.spool import MERGED_NAME

    if os.path.isfile(path) and os.path.basename(path) == MERGED_NAME:
        return fsck_fleet_dir(os.path.dirname(path) or ".")
    if not os.path.isdir(path):
        raise SafeHomeError(f"{path!r} is not a WAL directory")
    entries = os.listdir(path)
    if any(entry.startswith(SEGMENT_PREFIX)
           and entry.endswith(SEGMENT_SUFFIX) for entry in entries):
        return fsck_home_dir(path, salvage=salvage)
    if MERGED_NAME in entries:
        return fsck_fleet_dir(path)
    raise SafeHomeError(
        f"{path!r} holds neither WAL segments ({SEGMENT_PREFIX}*"
        f"{SEGMENT_SUFFIX}) nor a fleet spool ({MERGED_NAME})")
