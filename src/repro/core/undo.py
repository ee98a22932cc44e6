"""Undo for aborted routines (§2.2, §4.3).

An aborted device returns to its newest surviving write
(:class:`WriteChains`; EV's lineage applies the same rule), unless the
command names an undo value or a **user-specified undo-handler**
(:class:`UndoRegistry`) for an action it cannot physically undo.
"""

from collections import defaultdict
from typing import Any, Callable, Dict, Optional

from repro.core.command import Command

# An undo handler maps (command, prior_state) -> state to restore.
UndoHandler = Callable[[Command, Any], Any]


class UndoRegistry:
    """Per-device and per-device-kind user-specified undo handlers."""

    def __init__(self) -> None:
        self._by_device: Dict[int, UndoHandler] = {}
        self._default: Optional[UndoHandler] = None

    def register(self, device_id: int, handler: UndoHandler) -> None:
        self._by_device[device_id] = handler

    def register_default(self, handler: UndoHandler) -> None:
        self._default = handler

    def resolve(self, command: Command, prior_state: Any) -> Any:
        """The state to restore when undoing ``command``: its spec's
        ``undo_value``, else its device's handler, else the default
        handler, else ``prior_state`` (the paper's baseline)."""
        if command.undo_value is not None:
            return command.undo_value
        handler = self._by_device.get(command.device_id, self._default)
        if handler is not None:
            return handler(command, prior_state)
        return prior_state


def quiesce_handler(quiet_state: Any) -> UndoHandler:
    """A common pattern: undo always parks the device in a safe state
    (sprinkler OFF, alarm DISARMED) regardless of its prior state."""

    def handler(_command: Command, _prior: Any) -> Any:
        return quiet_state

    return handler


class WriteChains:
    """Per device, a committed base under the live (uncommitted) writes
    that landed on it, oldest first: ``[base, [(routine id, value)]]``.
    A write onto an empty chain sets the base to the state it overwrote;
    a commit makes the committer's newest write the base and drops the
    writes under it; an abort drops the aborter's writes and, where one
    was the top, restores the newest write still live, else the base."""

    def __init__(self) -> None:
        self._chains: Dict[int, list] = {}
        self._devices = defaultdict(dict)  # routine id -> devices written

    def land(self, routine_id: int, device_id: int, value: Any,
             prior: Any) -> None:
        chain = self._chains.get(device_id)
        if chain is None or not chain[1]:
            chain = self._chains[device_id] = [prior, []]
        chain[1].append((routine_id, value))
        self._devices[routine_id][device_id] = None

    def commit(self, routine_id: int) -> None:
        for device_id in self._devices.pop(routine_id, ()):
            chain = self._chains[device_id]
            for index in range(len(chain[1]) - 1, -1, -1):
                if chain[1][index][0] == routine_id:
                    chain[0] = chain[1][index][1]
                    del chain[1][:index + 1]
                    break

    def abort(self, routine_id: int) -> Dict[int, Any]:
        """Device id -> restore target, where an aborted write was top."""
        targets: Dict[int, Any] = {}
        for device_id in self._devices.pop(routine_id, ()):
            chain = self._chains[device_id]
            on_top = bool(chain[1]) and chain[1][-1][0] == routine_id
            live = chain[1] = [w for w in chain[1] if w[0] != routine_id]
            if on_top:
                targets[device_id] = live[-1][1] if live else chain[0]
        return targets

    def bases(self) -> Dict[int, Any]:
        """Device id -> base (what OCC's checkpoint digests)."""
        return {device: chain[0] for device, chain in self._chains.items()}
