"""Routine Bank: named routine storage (Fig 11).

Users submit routine definitions once; the dispatcher invokes them by
name, possibly many times (e.g. a timed Monday-night trash routine).
Every invocation runs the registered :class:`Routine` itself: the
engine never mutates a routine or its commands after construction, so
N runs of one routine share its command list and the footprint derived
from it (``tests/test_routine_values.py`` pins this).
"""

from typing import Dict, Iterator, List

from repro.core.routine import Routine
from repro.errors import RoutineSpecError


class RoutineBank:
    """Named store of routine definitions."""

    def __init__(self) -> None:
        self._routines: Dict[str, Routine] = {}

    def __len__(self) -> int:
        return len(self._routines)

    def __contains__(self, name: str) -> bool:
        return name in self._routines

    def __iter__(self) -> Iterator[Routine]:
        return iter(self._routines.values())

    def register(self, routine: Routine, replace: bool = False) -> None:
        if routine.name in self._routines and not replace:
            raise RoutineSpecError(
                f"routine {routine.name!r} already registered")
        self._routines[routine.name] = routine

    def get(self, name: str) -> Routine:
        routine = self._routines.get(name)
        if routine is None:
            raise RoutineSpecError(f"no routine named {name!r}")
        return routine

    def names(self) -> List[str]:
        return sorted(self._routines)
