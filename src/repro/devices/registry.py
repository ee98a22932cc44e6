"""The device registry: SafeHome's view of the home's device inventory."""

from typing import Dict, Iterable, Iterator, List, Optional

from repro.devices.catalog import make_device
from repro.devices.device import Device
from repro.errors import DeviceError


class DeviceRegistry:
    """Maps device ids/names to :class:`Device` instances.

    The registry is also where experiments snapshot and reset the home's
    state between trials.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, Device] = {}
        self._by_name: Dict[str, Device] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Device]:
        return iter(self._by_id.values())

    def __contains__(self, device_id: int) -> bool:
        return device_id in self._by_id

    def add(self, device: Device) -> Device:
        if device.device_id in self._by_id:
            raise DeviceError(f"duplicate device id {device.device_id}")
        if device.name in self._by_name:
            raise DeviceError(f"duplicate device name {device.name!r}")
        self._by_id[device.device_id] = device
        self._by_name[device.name] = device
        self._next_id = max(self._next_id, device.device_id + 1)
        return device

    def create(self, type_name: str, name: str = "") -> Device:
        """Create-and-add a catalog device with a fresh id."""
        device = make_device(self._next_id, type_name, name)
        return self.add(device)

    def create_many(self, type_name: str, count: int,
                    prefix: str = "") -> List[Device]:
        prefix = prefix or type_name
        return [self.create(type_name, f"{prefix}-{i}") for i in range(count)]

    def get(self, device_id: int) -> Device:
        device = self._by_id.get(device_id)
        if device is None:
            raise DeviceError(f"no device with id {device_id}")
        return device

    def by_name(self, name: str) -> Device:
        device = self._by_name.get(name)
        if device is None:
            raise DeviceError(f"no device named {name!r}")
        return device

    def find(self, name: str) -> Optional[Device]:
        return self._by_name.get(name)

    @property
    def devices(self) -> List[Device]:
        return list(self._by_id.values())

    def ids(self) -> List[int]:
        return list(self._by_id.keys())

    # -- experiment helpers -------------------------------------------------

    def snapshot(self) -> Dict[int, object]:
        """Current state of every device (for end-state checks)."""
        return {d.device_id: d.state for d in self}

    def snapshot_full(self) -> Dict[int, Dict[str, object]]:
        """Recoverable per-device image: state, liveness, initial state
        and write-log length (durability contract; the write log itself
        is replay-reconstructed, its length is digest evidence)."""
        return {d.device_id: {
            "name": d.name,
            "state": d.state,
            "failed": d.failed,
            "initial_state": d.initial_state,
            "writes": len(d.write_log),
        } for d in self}

    def failed_ids(self) -> List[int]:
        return [d.device_id for d in self if d.failed]

    def reset(self) -> None:
        """Restore every device to its initial state and clear logs."""
        for device in self:
            device.state = device.initial_state
            device.failed = False
            device.write_log.clear()

    def clear(self) -> None:
        """Drop the whole inventory (ids restart at 0).

        The fleet's home factory reuses one registry across homes whose
        device sets differ; clearing is equivalent to a fresh registry.
        """
        self._by_id.clear()
        self._by_name.clear()
        self._next_id = 0

    def subset(self, ids: Iterable[int]) -> List[Device]:
        return [self.get(i) for i in ids]
