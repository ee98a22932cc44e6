"""Routine Bank: named routine storage (Fig 11).

Users submit routine definitions once; the dispatcher invokes them by
name, possibly many times (e.g. a timed Monday-night trash routine).
"""

import copy
import dataclasses
from typing import Dict, Iterator, List

from repro.core.routine import Routine
from repro.errors import RoutineSpecError


#: Command values of these types carry no state a copy could share.
_ATOMS = (str, int, float, bool, type(None))


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

    def instantiate(self, name: str) -> Routine:
        """A fresh copy for one invocation (runs must not share state)."""
        template = self.get(name)
        commands = [copy.copy(command) for command in template.commands]
        for command in commands:
            if not isinstance(command.value, _ATOMS):
                command.value = copy.deepcopy(command.value)
            if not isinstance(command.undo_value, _ATOMS):
                command.undo_value = copy.deepcopy(command.undo_value)
        return dataclasses.replace(template, commands=commands,
                                   meta=copy.deepcopy(template.meta))

    def names(self) -> List[str]:
        return sorted(self._routines)
