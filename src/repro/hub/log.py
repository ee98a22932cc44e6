"""User feedback log (§2.2).

When a routine aborts or a best-effort command is skipped, "the user
receives feedback ... and she is free to either ignore or re-execute"
— this module materializes that feedback as structured, renderable
entries.  It keeps each finished run record (the hub retains them
anyway) and renders that run's entries when they are read.

Device failure/restart detections stream in live: the log subscribes to
the controller's ``on_detection`` callbacks, so ``DEVICE_FAILED`` and
``DEVICE_RESTARTED`` entries appear the moment the hub detects the
event (they used to exist only via an explicit
:meth:`FeedbackLog.record_detections` back-fill, which meant restart
feedback was silently dropped in every live path).  Hub crashes and
recoveries (see :mod:`repro.hub.durability`) are reported the same way.
"""

import enum
from dataclasses import dataclass
from typing import List, Union

from repro.core.controller import Controller, RoutineRun, RoutineStatus


class FeedbackKind(enum.Enum):
    ROUTINE_COMMITTED = "committed"
    ROUTINE_ABORTED = "aborted"
    COMMAND_SKIPPED = "command-skipped"
    COMMANDS_ROLLED_BACK = "rolled-back"
    DEVICE_FAILED = "device-failed"
    DEVICE_RESTARTED = "device-restarted"
    HUB_CRASHED = "hub-crashed"
    HUB_RESTARTED = "hub-restarted"


@dataclass(frozen=True)
class FeedbackEntry:
    time: float
    kind: FeedbackKind
    routine: str
    detail: str

    def render(self) -> str:
        return f"[{self.time:9.2f}s] {self.kind.value:16s} " \
               f"{self.routine:20s} {self.detail}"


class FeedbackLog:
    """Collects user-facing feedback from a controller's run records."""

    def __init__(self, controller: Controller) -> None:
        self.controller = controller
        # Finished runs and detection / hub entries, in event order.
        self._items: List[Union[RoutineRun, FeedbackEntry]] = []
        controller.on_routine_finished.append(self._items.append)
        controller.on_detection.append(self._on_detection)
        # Indexes into controller.detection_events already emitted —
        # live entries occupy the *tail* of that list when the log is
        # attached to an already-running controller, so a plain count
        # would refold them and skip the pre-attach head.
        self._emitted_detections = set()

    @property
    def entries(self) -> List[FeedbackEntry]:
        """Every entry so far, in event order; a run's are built here."""
        entries: List[FeedbackEntry] = []
        for item in self._items:
            if isinstance(item, FeedbackEntry):
                entries.append(item)
                continue
            run, now = item, item.finish_time   # unchanged since it finished
            if run.status is RoutineStatus.COMMITTED:
                skipped = [e for e in run.executions if e.skipped]
                entries.append(FeedbackEntry(
                    now, FeedbackKind.ROUTINE_COMMITTED, run.name,
                    f"{len(run.executions)} commands"
                    + (f", {len(skipped)} best-effort skipped" if skipped
                       else "")))
                for execution in skipped:
                    entries.append(FeedbackEntry(
                        now, FeedbackKind.COMMAND_SKIPPED, run.name,
                        f"device {execution.command.device_id} unreachable "
                        "(best-effort); you may re-execute it"))
            else:
                entries.append(FeedbackEntry(
                    now, FeedbackKind.ROUTINE_ABORTED, run.name,
                    run.abort_reason or "aborted"))
                if run.rolled_back_commands:
                    entries.append(FeedbackEntry(
                        now, FeedbackKind.COMMANDS_ROLLED_BACK, run.name,
                        f"{run.rolled_back_commands} commands undone; "
                        "you may re-initiate the routine"))
        return entries

    def _on_detection(self, kind: str, device_id: int,
                      when: float) -> None:
        """Live path: the hub just detected a failure or restart (the
        callback fires right after the event is appended, so it is the
        last entry in detection_events)."""
        self._emitted_detections.add(
            len(self.controller.detection_events) - 1)
        self._append_detection(kind, device_id, when)

    def _append_detection(self, kind: str, device_id: int,
                          when: float) -> None:
        feedback_kind = (FeedbackKind.DEVICE_FAILED if kind == "failure"
                         else FeedbackKind.DEVICE_RESTARTED)
        self._items.append(FeedbackEntry(
            when, feedback_kind, "-", f"device {device_id}"))

    def record_detections(self) -> None:
        """Back-fill detection events not yet emitted live (idempotent;
        kept for logs attached to an already-running controller)."""
        for index, (kind, device_id, when) in enumerate(
                self.controller.detection_events):
            if index not in self._emitted_detections:
                self._emitted_detections.add(index)
                self._append_detection(kind, device_id, when)

    # -- hub lifecycle (durability layer) -----------------------------------

    def hub_crashed(self, when: float) -> None:
        self._items.append(FeedbackEntry(
            when, FeedbackKind.HUB_CRASHED, "-",
            "hub lost power; in-memory state gone, WAL survives"))

    def hub_restarted(self, when: float, mode: str) -> None:
        self._items.append(FeedbackEntry(
            when, FeedbackKind.HUB_RESTARTED, "-",
            f"hub recovered from checkpoint + WAL replay ({mode} mode)"))

    def render(self) -> str:
        ordered = sorted(self.entries, key=lambda e: e.time)
        return "\n".join(entry.render() for entry in ordered)

    def aborts(self) -> List[FeedbackEntry]:
        return [e for e in self.entries
                if e.kind is FeedbackKind.ROUTINE_ABORTED]
