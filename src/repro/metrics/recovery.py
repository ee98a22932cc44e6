"""Recovery metrics: how long hub crash-recovery takes and why.

Summaries over :class:`~repro.hub.durability.RecoveryReport` rows —
replay length (events re-executed, observations the verified seals cover),
WAL length at crash, checkpoints verified, and the per-model policy
outcome (routines resumed vs aborted).  Recovery wall time is not a
report field: the perf ledger measures it (``durability.recover_ms_*``).
"""

from typing import Any, Dict, Iterable, List, Union

from repro.metrics.stats import summarize

Row = Dict[str, Any]


def _rows(reports: Iterable[Union[Row, Any]]) -> List[Row]:
    """Accept RecoveryReport objects or their .row() dicts."""
    return [report if isinstance(report, dict) else report.row()
            for report in reports]


def recovery_summary(reports: Iterable[Union[Row, Any]]) -> Dict[str, Any]:
    """Deterministic pooled summary of one run's recoveries."""
    rows = _rows(reports)
    return {
        "count": len(rows),
        "replayed_events": summarize([r["replayed_events"] for r in rows]),
        "replayed_records": summarize([r["replayed_records"]
                                       for r in rows]),
        "wal_records": summarize([r["wal_records"] for r in rows]),
        "checkpoints_verified": sum(r["checkpoints_verified"]
                                    for r in rows),
        "resumed_in_flight": sum(len(r["resumed"]) for r in rows),
        "aborted_in_flight": sum(len(r["aborted"]) for r in rows),
    }

