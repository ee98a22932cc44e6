"""Tests for the asynchronous device driver."""

import pytest

from repro.devices.driver import CommandOutcome, Driver
from repro.devices.network import LatencyModel
from repro.devices.registry import DeviceRegistry
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


def make_stack(latency_ms=10.0, timeout_s=0.1):
    sim = Simulator()
    registry = DeviceRegistry()
    registry.create_many("plug", 3)
    driver = Driver(sim=sim, registry=registry,
                    latency=LatencyModel.deterministic(latency_ms),
                    streams=RandomStreams(seed=0), timeout_s=timeout_s)
    return sim, registry, driver


class TestIssue:
    def test_apply_after_latency(self):
        sim, registry, driver = make_stack(latency_ms=10.0)
        outcomes = []
        driver.issue(0, "ON", source=1,
                     callback=lambda outcome, prior: outcomes.append(outcome))
        sim.run()
        assert outcomes == [CommandOutcome.APPLIED]
        assert registry.get(0).state == "ON"
        assert sim.now == pytest.approx(0.01)

    def test_timeout_on_failed_device(self):
        sim, registry, driver = make_stack(latency_ms=10.0, timeout_s=0.1)
        registry.get(0).fail()
        outcomes = []
        driver.issue(0, "ON", source=1,
                     callback=lambda outcome, prior: outcomes.append(outcome))
        sim.run()
        assert outcomes == [CommandOutcome.TIMED_OUT]
        assert registry.get(0).state == "OFF"
        assert sim.now == pytest.approx(0.11)

    def test_timeout_reports_to_hook(self):
        sim, registry, driver = make_stack()
        registry.get(1).fail()
        reported = []
        driver.on_timeout = reported.append
        driver.issue(1, "ON", source=1,
                     callback=lambda outcome, prior: None)
        sim.run()
        assert reported == [1]

    def test_failure_mid_flight_times_out(self):
        # Device fails after issue but before the command lands.
        sim, registry, driver = make_stack(latency_ms=50.0)
        outcomes = []
        driver.issue(0, "ON", source=1,
                     callback=lambda outcome, prior: outcomes.append(outcome))
        sim.call_at(0.02, registry.get(0).fail)
        sim.run()
        assert outcomes == [CommandOutcome.TIMED_OUT]


class TestPing:
    def test_ping_up_device(self):
        sim, registry, driver = make_stack()
        outcomes = []
        driver.ping(0, outcomes.append)
        sim.run()
        assert outcomes == [CommandOutcome.APPLIED]

    def test_ping_failed_device_times_out(self):
        sim, registry, driver = make_stack(timeout_s=0.1)
        registry.get(0).fail()
        outcomes = []
        driver.ping(0, outcomes.append)
        sim.run()
        assert outcomes == [CommandOutcome.TIMED_OUT]
        assert sim.now == pytest.approx(0.11)
