"""Tests for the device substrate: devices, catalog, registry, network,
failure injection."""

import pytest

from repro.devices.catalog import DEVICE_CATALOG, make_device
from repro.devices.device import Device, DeviceKind, ensure_same_type
from repro.devices.failures import FailureInjector, FailurePlan
from repro.devices.network import LatencyModel
from repro.devices.registry import DeviceRegistry
from repro.errors import DeviceError, DeviceUnavailableError
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class TestDevice:
    def test_apply_changes_state_and_logs(self):
        device = Device(0, "light")
        device.apply("ON", now=1.0, source=7)
        assert device.state == "ON"
        assert device.write_log == [(1.0, "ON", 7)]

    def test_apply_fails_when_down(self):
        device = Device(0, "light")
        device.fail()
        with pytest.raises(DeviceUnavailableError):
            device.apply("ON", now=1.0)
        assert device.state == "OFF"

    def test_read_fails_when_down(self):
        device = Device(0, "light")
        device.fail()
        with pytest.raises(DeviceUnavailableError):
            device.read()

    def test_restart_retains_state(self):
        device = Device(0, "light")
        device.apply("ON", now=0.0)
        device.fail()
        device.restart()
        assert device.read() == "ON"

    def test_watchers_fire(self):
        device = Device(0, "light")
        seen = []
        device.watch(lambda dev, value: seen.append(value))
        device.apply("ON", now=0.0)
        assert seen == ["ON"]

    def test_group_kind_validation(self):
        lights = [Device(i, f"l{i}", DeviceKind.SWITCH) for i in range(3)]
        ensure_same_type(lights)
        mixed = lights + [Device(9, "lock", DeviceKind.LOCK)]
        with pytest.raises(DeviceError):
            ensure_same_type(mixed)
        with pytest.raises(DeviceError):
            ensure_same_type([])


class TestCatalog:
    def test_all_specs_instantiate(self):
        for index, type_name in enumerate(DEVICE_CATALOG):
            device = make_device(index, type_name)
            assert device.state == DEVICE_CATALOG[type_name].initial_state

    def test_unknown_type(self):
        with pytest.raises(KeyError):
            make_device(0, "warp-core")

    def test_custom_name(self):
        assert make_device(0, "light", "hall").name == "hall"

    def test_default_name(self):
        assert make_device(3, "light").name == "light-3"


class TestRegistry:
    def test_create_assigns_sequential_ids(self):
        registry = DeviceRegistry()
        a = registry.create("light")
        b = registry.create("plug")
        assert (a.device_id, b.device_id) == (0, 1)

    def test_duplicate_name_rejected(self):
        registry = DeviceRegistry()
        registry.create("light", "hall")
        with pytest.raises(DeviceError):
            registry.create("plug", "hall")

    def test_duplicate_id_rejected(self):
        registry = DeviceRegistry()
        registry.add(Device(0, "a"))
        with pytest.raises(DeviceError):
            registry.add(Device(0, "b"))

    def test_lookup_by_id_and_name(self):
        registry = DeviceRegistry()
        device = registry.create("light", "hall")
        assert registry.get(device.device_id) is device
        assert registry.by_name("hall") is device
        assert registry.find("nope") is None
        with pytest.raises(DeviceError):
            registry.get(99)
        with pytest.raises(DeviceError):
            registry.by_name("nope")

    def test_create_many(self):
        registry = DeviceRegistry()
        lights = registry.create_many("light", 3)
        assert [d.name for d in lights] == \
            ["light-0", "light-1", "light-2"]

    def test_snapshot_and_reset(self):
        registry = DeviceRegistry()
        device = registry.create("light")
        device.apply("ON", now=0.0)
        device.fail()
        assert registry.snapshot() == {0: "ON"}
        assert registry.failed_ids() == [0]
        registry.reset()
        assert registry.snapshot() == {0: "OFF"}
        assert registry.failed_ids() == []
        assert device.write_log == []

    def test_iteration_and_len(self):
        registry = DeviceRegistry()
        registry.create_many("plug", 4)
        assert len(registry) == 4
        assert len(list(registry)) == 4
        assert registry.ids() == [0, 1, 2, 3]
        assert 2 in registry


class TestLatencyModel:
    def test_deterministic(self):
        model = LatencyModel.deterministic(50.0)
        rng = RandomStreams(seed=0).stream("net")
        assert model.sample(rng) == pytest.approx(0.05)

    def test_jitter_positive_and_floored(self):
        model = LatencyModel(median_ms=60.0, sigma=0.6, floor_ms=5.0)
        rng = RandomStreams(seed=0).stream("net")
        for _ in range(500):
            assert model.sample(rng) >= 0.005

    def test_median_roughly_respected(self):
        model = LatencyModel(median_ms=100.0, sigma=0.5, floor_ms=1.0)
        rng = RandomStreams(seed=0).stream("net")
        samples = sorted(model.sample(rng) for _ in range(999))
        assert 0.08 < samples[len(samples) // 2] < 0.12


class TestFailureInjector:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FailurePlan(0, fail_at=5.0, restart_at=1.0)

    def test_fail_and_restart_happen_on_schedule(self):
        sim = Simulator()
        registry = DeviceRegistry()
        device = registry.create("plug")
        injector = FailureInjector(sim, registry)
        injector.add(FailurePlan(0, fail_at=2.0, restart_at=5.0))
        injector.arm()
        sim.run(until=3.0)
        assert device.failed
        sim.run()
        assert not device.failed

    def test_random_plans_fraction(self):
        rng = RandomStreams(seed=1).stream("f")
        plans = FailureInjector.random_plans(rng, list(range(20)), 0.25,
                                             horizon=100.0)
        assert len(plans) == 5
        assert all(0 <= plan.fail_at <= 100.0 for plan in plans)
        assert len({plan.device_id for plan in plans}) == 5

    def test_random_plans_with_restart(self):
        rng = RandomStreams(seed=1).stream("f")
        plans = FailureInjector.random_plans(rng, list(range(10)), 0.5,
                                             horizon=50.0,
                                             restart_after=7.0)
        for plan in plans:
            assert plan.restart_at == pytest.approx(plan.fail_at + 7.0)

    def test_random_plans_rejects_bad_fraction(self):
        rng = RandomStreams(seed=1).stream("f")
        with pytest.raises(ValueError):
            FailureInjector.random_plans(rng, [1, 2], 1.5, horizon=10.0)
