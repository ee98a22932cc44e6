"""Failure detector (§6).

Explicitly pings every device each second (100 ms timeout) and also
accepts *implicit* detections: every timed-out command reported by the
driver marks its device failed immediately, reducing the ping rate
needed in practice.  Detection — not the physical failure — is the
failure/restart *event* that the visibility models serialize (§3).
"""

from typing import Optional

from repro.core.controller import Controller
from repro.devices.driver import CommandOutcome, Driver
from repro.devices.registry import DeviceRegistry
from repro.sim.engine import Simulator


class FailureDetector:
    """Periodic ping + implicit timeout detection."""

    def __init__(self, sim: Simulator, registry: DeviceRegistry,
                 driver: Driver, controller: Controller,
                 ping_period_s: float = 1.0,
                 horizon: Optional[float] = None) -> None:
        self.sim = sim
        self.registry = registry
        self.driver = driver
        self.controller = controller
        self.ping_period_s = ping_period_s
        # Stop pinging after this virtual time (lets simulations drain);
        # None keeps pinging while any routine is unfinished.
        self.horizon = horizon
        self.pings_sent = 0
        self.ticking = False
        driver.on_timeout = self.report_timeout

    def start(self) -> None:
        self.ticking = True
        self.sim.call_after(self.ping_period_s, self._tick,
                            label="detector-tick")

    def _tick(self) -> None:
        for device in self.registry:
            self._ping(device.device_id)
        self.ticking = self._should_continue()
        if self.ticking:
            self.sim.call_after(self.ping_period_s, self._tick,
                                label="detector-tick")

    def _should_continue(self) -> bool:
        if self.horizon is not None:
            return self.sim.now < self.horizon
        return not self.controller.all_done()

    def _ping(self, device_id: int) -> None:
        self.pings_sent += 1

        def answered(outcome: CommandOutcome) -> None:
            if outcome is CommandOutcome.APPLIED:
                if device_id in self.controller.believed_failed:
                    self.controller.on_restart_detected(device_id)
            else:
                self.controller.on_failure_detected(device_id)

        self.driver.ping(device_id, answered)

    def report_timeout(self, device_id: int) -> None:
        """Implicit detection: a routine command timed out."""
        self.controller.on_failure_detected(device_id)
