"""Property-based congruence oracle: per-model invariants over a run.

Each visibility model promises a different slice of the congruence
spectrum (§2.1).  The oracle turns those promises into checkable
invariants over any :class:`~repro.core.controller.RunResult`:

* **universal** (every model) — abort-or-commit soundness: every
  routine reaches a terminal status, committed + aborted partitions the
  run set, an aborted routine's writes never survive as a device's
  final state (rollback erasure), and every write-log entry is
  attributable.
* **GSV / SGSV** — global serialization: no two routines' execution
  windows overlap at all, and the end state is serially equivalent.
* **PSV** — footprint atomicity: no two routines with intersecting
  device footprints overlap (disjoint routines may), and the end state
  is serially equivalent.
* **EV** — lineage consistency: the per-device access order is acyclic
  and replaying its topological order reproduces the end state.
* **OCC** — committed-serializable: the surviving (committed) routines
  admit a serial order reaching the end state.
* **WV** — universal only: weak visibility promises nothing further
  (its incongruence is the *measurement*, not a bug).

The oracle is what the adversarial hunt (``repro hunt``) scores
against: generated scenarios may maximize incongruence *pressure*, but
an invariant violation on any model is always a real bug.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.controller import RoutineStatus, RunResult
from repro.errors import SafeHomeError
from repro.metrics.congruence import (_writer_id, effective_writes,
                                      serial_end_state_exists)
from repro.metrics.serialization import (reconstruct_serial_order,
                                         validate_serial_order)

#: Slack for execution-window overlap: windows are half-open, so
#: back-to-back routines (next starts exactly at previous finish) never
#: count as overlapping.
_OVERLAP_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant (a genuine bug, never expected pressure)."""

    invariant: str
    detail: str
    routine_id: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"invariant": self.invariant, "detail": self.detail,
                "routine_id": self.routine_id}


@dataclass
class OracleReport:
    """Verdict of one oracle pass over one run."""

    model: str
    checked: Tuple[str, ...]
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "checked": list(self.checked),
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }


def _failed_now(result: RunResult) -> set:
    """Devices believed failed at the end of the run."""
    failed = set()
    for kind, device_id, _t in result.detection_events:
        if kind == "failure":
            failed.add(device_id)
        else:
            failed.discard(device_id)
    return failed


# -- universal invariants ------------------------------------------------------

def _check_terminal(result: RunResult, out: List[Violation]) -> None:
    for run in result.runs:
        if not run.status.finished:
            out.append(Violation(
                "terminal-status", routine_id=run.routine_id,
                detail=f"routine {run.name!r} ended {run.status.value}, "
                       "not committed/aborted"))


def _check_partition(result: RunResult, out: List[Violation]) -> None:
    committed, aborted = len(result.committed), len(result.aborted)
    if committed + aborted != len(result.runs):
        out.append(Violation(
            "commit-abort-partition",
            detail=f"{committed} committed + {aborted} aborted != "
                   f"{len(result.runs)} routines"))


def _check_abort_erasure(result: RunResult, initial: Dict[int, Any],
                         out: List[Violation]) -> None:
    """An aborted routine's write must not decide a device's final
    state — rollback (or a later writer) must have erased it.

    The check is value-based: replay the write log ignoring aborted
    routines' *forward* writes (rollback entries, tagged
    ``("rollback", id)``, are the erasure and count at face value); the
    end state must match.  Value-based matters because a rollback that
    restores the value the aborted routine itself wrote is a no-op the
    device never logs.  Two authoritative reconstructions are accepted,
    because a rollback snapshots "last committed" at rollback *time*: a
    concurrent routine committing between write and rollback makes the
    restore stale, and the device converges on the committed value via
    later suppressed no-ops the log cannot show — so the end state may
    legitimately match the last committed/hub forward write instead of
    the rollback-faithful replay.  Devices failed at the end of the run
    are exempt: their rollback is deferred to restart reconciliation."""
    aborted_ids = {run.routine_id for run in result.aborted}
    failed = _failed_now(result)
    for device_id, log in result.device_write_logs.items():
        if not log or device_id in failed:
            continue
        _t, _value, last_source = log[-1]
        if not (isinstance(last_source, int)
                and last_source in aborted_ids):
            continue    # final write is already authoritative
        replayed = committed = initial.get(device_id)
        for _t, value, source in log:
            if isinstance(source, int) and source in aborted_ids:
                continue
            replayed = value
            if not isinstance(source, tuple):   # forward/hub, not rollback
                committed = value
        end = result.end_state.get(device_id)
        if end != replayed and end != committed:
            out.append(Violation(
                "abort-erasure", routine_id=last_source,
                detail=f"aborted routine {last_source} decided device "
                       f"{device_id}'s final state ({end!r} != erased "
                       f"value {replayed!r} or committed value "
                       f"{committed!r})"))


def _check_attribution(result: RunResult, out: List[Violation]) -> None:
    known = {run.routine_id for run in result.runs}
    for device_id, log in result.device_write_logs.items():
        for _t, _value, source in log:
            writer = _writer_id(source)
            if writer is not None and writer not in known:
                out.append(Violation(
                    "write-attribution",
                    detail=f"device {device_id} write attributed to "
                           f"unknown routine {writer}"))


# -- isolation invariants ------------------------------------------------------

def _windows(result: RunResult) -> List[Tuple[float, float, Any]]:
    return [(run.start_time, run.finish_time, run)
            for run in result.runs
            if run.start_time is not None and run.finish_time is not None]


def _check_no_overlap(result: RunResult, out: List[Violation],
                      invariant: str, conflicting_only: bool) -> None:
    windows = sorted(_windows(result), key=lambda w: (w[0], w[2].routine_id))
    for i, (start_a, finish_a, run_a) in enumerate(windows):
        for j in range(i + 1, len(windows)):
            start_b, finish_b, run_b = windows[j]
            if start_b >= finish_a - _OVERLAP_EPS:
                break       # sorted by start: no later window overlaps
            if conflicting_only and not (
                    run_a.routine.device_set & run_b.routine.device_set):
                continue
            out.append(Violation(
                invariant, routine_id=run_b.routine_id,
                detail=f"routines {run_a.routine_id} and "
                       f"{run_b.routine_id} overlap "
                       f"[{start_b:.3f}, {min(finish_a, finish_b):.3f}]"))


def _check_serial_end_state(result: RunResult, initial: Dict[int, Any],
                            out: List[Violation], invariant: str,
                            exhaustive_limit: int) -> None:
    """The end state must be reachable by SOME serial order (failure-free
    runs) or by the reconstructed order interleaved with failure events
    (runs with detections)."""
    try:
        if result.detection_events:
            ok = validate_serial_order(result, initial)
        else:
            try:
                witness: Optional[List[int]] = \
                    reconstruct_serial_order(result)
            except SafeHomeError:
                witness = None      # cyclic access order: search only
            ok = serial_end_state_exists(
                result.end_state, effective_writes(result.runs), initial,
                exhaustive_limit=exhaustive_limit, witness=witness)
    except SafeHomeError as error:
        out.append(Violation(invariant,
                             detail=f"serial-order reconstruction: {error}"))
        return
    if not ok:
        out.append(Violation(
            invariant,
            detail="end state is not serially equivalent to any order "
                   "of the committed routines"))


def _check_ev_lineage(result: RunResult, initial: Dict[int, Any],
                      out: List[Violation]) -> None:
    """EV's device access order must be acyclic and its topological
    order must replay to the observed end state."""
    try:
        order = reconstruct_serial_order(result)
    except SafeHomeError as error:
        out.append(Violation("ev-lineage-acyclic", detail=str(error)))
        return
    if not validate_serial_order(result, initial, order):
        out.append(Violation(
            "ev-lineage-replay",
            detail="replaying the reconstructed serial order "
                   f"{order} does not reproduce the end state"))


_UNIVERSAL = ("terminal-status", "commit-abort-partition",
              "abort-erasure", "write-attribution")

#: Extra invariants checked per model (beyond the universal set).
MODEL_INVARIANTS: Dict[str, Tuple[str, ...]] = {
    "wv": (),
    "gsv": ("gsv-isolation", "gsv-serializable"),
    "sgsv": ("gsv-isolation", "gsv-serializable"),
    "psv": ("psv-footprint-atomicity", "psv-serializable"),
    "ev": ("ev-lineage-acyclic", "ev-lineage-replay"),
    "occ": ("occ-committed-serializable",),
}


def check_run(result: RunResult, initial: Dict[int, Any],
              model: Optional[str] = None,
              exhaustive_limit: int = 6) -> OracleReport:
    """Check every invariant ``model`` promises against one run.

    ``model`` defaults to ``result.model_name``; ``initial`` is the
    registry snapshot taken before the run (``SafeHome.initial`` /
    ``Home.initial``).
    """
    model = model or result.model_name
    if model not in MODEL_INVARIANTS:
        raise ValueError(f"unknown model {model!r}; "
                         f"pick from {sorted(MODEL_INVARIANTS)}")
    violations: List[Violation] = []
    _check_terminal(result, violations)
    _check_partition(result, violations)
    _check_abort_erasure(result, initial, violations)
    _check_attribution(result, violations)

    extra = MODEL_INVARIANTS[model]
    if model in ("gsv", "sgsv"):
        _check_no_overlap(result, violations, "gsv-isolation",
                          conflicting_only=False)
        _check_serial_end_state(result, initial, violations,
                                "gsv-serializable", exhaustive_limit)
    elif model == "psv":
        _check_no_overlap(result, violations, "psv-footprint-atomicity",
                          conflicting_only=True)
        _check_serial_end_state(result, initial, violations,
                                "psv-serializable", exhaustive_limit)
    elif model == "ev":
        _check_ev_lineage(result, initial, violations)
    elif model == "occ":
        _check_serial_end_state(result, initial, violations,
                                "occ-committed-serializable",
                                exhaustive_limit)

    return OracleReport(model=model, checked=_UNIVERSAL + extra,
                        violations=violations)
