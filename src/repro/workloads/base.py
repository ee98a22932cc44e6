"""Workload container consumed by the experiment runner."""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.routine import Routine
from repro.devices.failures import FailurePlan


@dataclass
class Workload:
    """A reproducible set of devices, routines and failures.

    Routines arrive either open-loop (``arrivals``: fixed submission
    times) or closed-loop (``streams``: each stream invokes its next
    routine when the previous invocation ends — the paper's ρ concurrent
    routines; an OCC retry is the same invocation's next attempt).
    Stream invocations are numbered in finish order, which depends on
    the model: after a migration a cancel of one may name another.
    """

    name: str
    devices: List[Tuple[str, str]]              # (catalog type, name)
    arrivals: List[Tuple[Routine, float]] = field(default_factory=list)
    streams: List[List[Routine]] = field(default_factory=list)
    failure_plans: List[FailurePlan] = field(default_factory=list)
    horizon_hint: Optional[float] = None        # rough virtual run length
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError(f"workload {self.name!r} has no devices")
        if not self.arrivals and not any(self.streams):
            raise ValueError(f"workload {self.name!r} has no routines")

    @property
    def routine_count(self) -> int:
        return len(self.arrivals) + sum(len(s) for s in self.streams)

    def all_routines(self) -> List[Routine]:
        routines = [routine for routine, _t in self.arrivals]
        for stream in self.streams:
            routines.extend(stream)
        return routines

    def device_count(self) -> int:
        return len(self.devices)


def attach_streams(controller, streams: List[List[Routine]]) -> None:
    """Closed-loop injection: each stream submits its next routine when
    the previous invocation ends (the paper's ρ concurrent routines)."""
    cursors = {index: 0 for index in range(len(streams))}
    invocation_stream: Dict[int, int] = {}

    def submit_next(stream_index: int) -> None:
        cursor = cursors[stream_index]
        if cursor >= len(streams[stream_index]):
            return
        cursors[stream_index] = cursor + 1
        run = controller.submit(streams[stream_index][cursor])
        invocation_stream[run.invocation] = stream_index

    def on_finished(run) -> None:
        stream_index = invocation_stream.get(run.invocation)
        if stream_index is not None:
            submit_next(stream_index)

    controller.on_invocation_finished.append(on_finished)
    for stream_index, stream in enumerate(streams):
        if stream:
            submit_next(stream_index)
