"""``repro fsck``: offline verification and salvage of durable logs.

The filesystem-checker for this repo's two durable artifacts, which
share one on-disk format and therefore one pipeline:

* **single-home WAL directories** — segmented CRC-framed logs written
  by ``SafeHome(durability=True, wal_dir=...)``;
* **fleet spool directories** — ``fleet-wal.segs``, every home's log
  as one single-segment image, plus the byte-offset index written by
  :func:`repro.fleet.spool.merge_spool`.

A home check runs the full pipeline: the scanner
(:func:`~repro.hub.durability.storage.scan_wal_dir`) classifies the
bytes (clean / crash-consistent torn tail / corrupt), then the
surviving records are *replayed and verified* by the shared engine
(:mod:`repro.hub.durability.replay`:
:func:`~repro.hub.durability.replay.build_home` +
:meth:`SafeHome.salvage_records`) and the congruence oracle passes over
the replayed home.  With ``salvage=True`` a corrupt log is additionally
cut at its last good checkpoint and salvaged.  A fleet check runs every
home's slice of the merged log through that same pipeline.

Exit-code contract (classic fsck convention, pinned by tests; a fleet
exits with its worst home's code):

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
                                          WalScan, scan_log, scan_wal_dir)

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
    #: Fleet only: the summary, and the report of every home that is
    #: not clean with exit code 0, by home id.
    fleet: Optional[Dict[str, Any]] = None
    homes: Dict[int, "FsckReport"] = field(default_factory=dict)
    #: The home rebuilt by verification/salvage (not serialized).
    replayed_home: Any = None

    def exit_code(self) -> int:
        if self.target == "fleet":
            return max((home.exit_code() for home in self.homes.values()),
                       default=0)
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
            data["homes"] = {str(home_id): home.to_dict()
                             for home_id, home in self.homes.items()}
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
        report = home.salvage_records(
            scan.records, bounded=bounded,
            end=scan.seals[-1] if scan.clean_close and not bounded else None)
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


def _check(scan: WalScan, path: str, salvage: bool) -> FsckReport:
    """Everything after the scan: replay-verify the survivors, or
    salvage a corrupt log, and file the home report."""
    report = FsckReport(
        target="home", path=path, status=scan.status,
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


def fsck_home_dir(wal_dir: str, salvage: bool = False) -> FsckReport:
    """Check (and optionally salvage) one segmented home WAL dir."""
    return _check(scan_wal_dir(wal_dir, strict=False), wal_dir, salvage)


def fsck_fleet_dir(wal_dir: str, salvage: bool = False) -> FsckReport:
    """Check (and optionally salvage, home by home) a merged fleet log:
    each slice the index names goes through the home pipeline.

    Two things a home log may legitimately show are damage here: a
    header naming another home (a stale index), and a log that does not
    end on its final seal — a fleet image is written whole, after its
    home finished, so it has no crash window.
    """
    from repro.fleet.spool import MERGED_NAME, read_block, read_index

    index = read_index(wal_dir)
    merged_path = os.path.join(wal_dir, MERGED_NAME)
    report = FsckReport(target="fleet", path=wal_dir, status="clean")
    records = 0
    for home_id in sorted(map(int, index["index"])):
        try:
            offset, block = read_block(wal_dir, home_id, index)
        except CorruptionError as exc:
            scan = WalScan(corruption=exc)
        else:
            scan = scan_log(block, strict=False)
            holder = (scan.header or {}).get("home_id")
            if scan.corruption is None and holder != home_id:
                scan.corruption = CorruptionError(
                    f"stale index: slice for home {home_id} holds home "
                    f"{holder}", path=merged_path, offset=offset)
            elif scan.corruption is None and not scan.clean_close:
                scan.corruption = CorruptionError(
                    "fleet log image does not end on a final seal",
                    path=merged_path, offset=offset)
        home = _check(scan, merged_path, salvage)
        records += home.records
        if home.status != "clean" or home.exit_code():
            report.homes[home_id] = home
            if home.status == "corrupt":
                report.status = "corrupt"
    report.fleet = {"homes": len(index["index"]),
                    "clean_homes": len(index["index"]) - len(report.homes),
                    "records": records,
                    "merged_bytes": os.path.getsize(merged_path)}
    return report


def fsck_path(path: str, salvage: bool = False) -> FsckReport:
    """Dispatch on artifact type: home WAL dir or fleet spool dir."""
    from repro.fleet.spool import MERGED_NAME

    if os.path.isfile(path) and os.path.basename(path) == MERGED_NAME:
        return fsck_fleet_dir(os.path.dirname(path) or ".", salvage=salvage)
    if not os.path.isdir(path):
        raise SafeHomeError(f"{path!r} is not a WAL directory")
    entries = os.listdir(path)
    if any(entry.startswith(SEGMENT_PREFIX)
           and entry.endswith(SEGMENT_SUFFIX) for entry in entries):
        return fsck_home_dir(path, salvage=salvage)
    if MERGED_NAME in entries:
        return fsck_fleet_dir(path, salvage=salvage)
    raise SafeHomeError(
        f"{path!r} holds neither WAL segments ({SEGMENT_PREFIX}*"
        f"{SEGMENT_SUFFIX}) nor a fleet spool ({MERGED_NAME})")
