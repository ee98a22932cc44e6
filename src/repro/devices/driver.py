"""The device driver layer: commands are asynchronous API calls.

SafeHome "works directly with the APIs which devices naturally provide
(commands are API calls)" (§1, §6).  The driver adds network latency on
the way to the device and reports success or failure back to the
controller.  A call to a failed device times out after the detection
timeout (100 ms by default), which doubles as implicit failure detection.
"""

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.devices.network import LatencyModel
from repro.devices.registry import DeviceRegistry
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class CommandOutcome(enum.Enum):
    """Result of one device API call."""

    APPLIED = "applied"
    TIMED_OUT = "timed_out"      # device failed / unreachable


@dataclass
class Driver:
    """Asynchronous command issue with latency and timeout semantics."""

    sim: Simulator
    registry: DeviceRegistry
    latency: LatencyModel = field(default_factory=LatencyModel.deterministic)
    streams: Optional[RandomStreams] = None
    timeout_s: float = 0.1
    # Called with (device_id,) whenever an API call times out; the hub's
    # failure detector hooks this for implicit detection.
    on_timeout: Optional[Callable[[int], None]] = None

    def __post_init__(self) -> None:
        if self.streams is None:
            self.streams = RandomStreams(seed=0)
        # The network stream is drawn once per command; resolve the
        # named-stream lookup once instead of per call.
        self._network = self.streams.stream("network")

    def _delay(self) -> float:
        return self.latency.sample(self._network)

    def reset(self) -> None:
        """Clear per-run state after the owning stack was re-seeded.

        The sim/registry/streams objects are reused by reference (the
        fleet home factory resets them in place); the driver only needs
        to re-resolve the network stream from the re-keyed family and
        detach the previous home's timeout hook.
        """
        self._network = self.streams.stream("network")
        self.on_timeout = None

    def issue(self, device_id: int, value: Any, source: Any,
              callback: Callable[..., None],
              cb_args: tuple = ()) -> None:
        """Issue ``set device := value``; invoke ``callback(outcome,
        prior, *cb_args)`` when done, where ``prior`` is the state the
        device held just before the write landed (the rollback target).

        The state change lands after one network delay; if the device is
        failed at landing time the call times out ``timeout_s`` later.
        The landing runs as a bound method with explicit event args (no
        per-command closure) — this path fires once per command in every
        fleet home; ``cb_args`` lets callers route context the same way.
        """
        self.sim.call_after(self._delay(), self._land, device_id, value,
                            source, callback, cb_args, label="land")

    def _land(self, device_id: int, value: Any, source: Any,
              callback: Callable[..., None], cb_args: tuple) -> None:
        device = self.registry.get(device_id)
        if device.failed:
            self.sim.call_after(
                self.timeout_s, self._timed_out, device_id, callback,
                cb_args, label=f"timeout:{device.name}")
            return
        prior = device.state
        device.apply(value, self.sim.now, source)
        callback(CommandOutcome.APPLIED, prior, *cb_args)

    def _timed_out(self, device_id: int, callback: Callable[..., None],
                   cb_args: tuple) -> None:
        if self.on_timeout is not None:
            self.on_timeout(device_id)
        callback(CommandOutcome.TIMED_OUT, None, *cb_args)

    def ping(self, device_id: int,
             callback: Callable[[CommandOutcome], None]) -> None:
        """Health probe used by the explicit failure detector."""
        delay = self._delay()

        def land() -> None:
            device = self.registry.get(device_id)
            if device.failed:
                self.sim.call_after(
                    self.timeout_s,
                    lambda: callback(CommandOutcome.TIMED_OUT),
                    label=f"ping-timeout:{device.name}")
            else:
                callback(CommandOutcome.APPLIED)

        self.sim.call_after(delay, land, label=f"ping:{device_id}")
