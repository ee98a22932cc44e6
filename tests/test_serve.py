"""Service mode: pacing, admission control, SLO metrics, the hub.

The soak/load tier lives in tests/test_serve_soak.py; this file is
the fast unit tier — fake-clock pacing, exact fairness ratios,
backpressure semantics, drain behavior, the pump-vs-run report
equivalence that anchors service mode to batch mode, and durable
served homes: their slices are journaled ``run`` inputs, so they
report, replay, fsck and crash exactly as batch homes do.
"""

import json
import math
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.errors import (AdmissionRejected, HubCrashedError,
                          RoutineSpecError, ServeError)
from repro.hub.durability import DurabilityConfig, replay, state_digest
from repro.hub.safehome import SafeHome
from repro.metrics.oracle import check_run
from repro.serve import (AdmissionControl, RealTimeDriver, RollingWindow,
                         ServeConfig, ServeHub, StatusServer,
                         build_serve_home, parse_speedup, quantile_summary,
                         run_closed_loop)
from repro.serve.loadgen import SERVE_DEVICES, SERVE_MENU
from repro.workloads.fleet_mix import cooling_scenario
from tests.test_hub_machine import plug_home

MODELS = ("wv", "gsv", "psv", "ev", "occ")
EXECUTIONS = ("serial", "parallel")


class FakeClock:
    """Deterministic monotonic clock whose sleep() advances it."""

    def __init__(self) -> None:
        self.t = 0.0

    def monotonic(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0
        self.t += seconds


def menu_home(model="ev", execution=None, **kwargs):
    """A served home built like ``build_serve_home``, durable on request
    (``durability=`` / ``wal_dir=`` go to :class:`SafeHome`)."""
    home = SafeHome(visibility=model, execution=execution, seed=5,
                    **kwargs)
    for type_name, name in SERVE_DEVICES:
        home.add_device(type_name, name)
    for spec in SERVE_MENU:
        home.register_routine_spec(spec)
    return home


def assert_twin_replays_equal(home):
    """A fresh hub replaying ``home``'s log to its closing seal verifies
    and reaches the same state digest."""
    records = list(home.wal.records)
    twin = replay.build_home(records)
    replay.replay(twin, records, end=home.wal.observed())
    assert state_digest(twin._capture_state()) == \
        state_digest(home._capture_state())


# -- pacing --------------------------------------------------------------------


class TestRealTimeDriver:
    def test_virtual_paced_drains_without_sleeping(self):
        home = SafeHome()
        sim = home.sim
        fired = []
        for at in (1.0, 2.0, 30.0):
            sim.call_at(at, fired.append, at)
        clock = FakeClock()
        driver = RealTimeDriver(home, speedup=math.inf,
                                monotonic=clock.monotonic,
                                sleep=clock.sleep)
        assert driver.pump() == 3
        assert fired == [1.0, 2.0, 30.0]
        assert clock.t == 0.0          # no sleeps, no wall coupling
        assert driver.behind_s() == 0.0
        with pytest.raises(ServeError):
            driver.target()

    def test_finite_speedup_paces_against_wall_clock(self):
        home = SafeHome()
        sim = home.sim
        fired = []
        sim.call_at(1.0, fired.append, 1.0)
        sim.call_at(2.0, fired.append, 2.0)
        clock = FakeClock()
        driver = RealTimeDriver(home, speedup=2.0, poll_s=1.0,
                                monotonic=clock.monotonic,
                                sleep=clock.sleep)
        driver.start()
        # Wall t=0 has earned no virtual time: nothing fires, and the
        # idle sleep stops exactly at the first event's due time.
        assert driver.pump() == 0
        assert fired == []
        assert clock.t == pytest.approx(0.5)   # (1.0 virtual) / 2x
        assert driver.pump() == 1
        assert fired == [1.0]
        assert sim.now == pytest.approx(1.0)
        assert driver.pump() == 0              # 2.0 not due yet
        assert clock.t == pytest.approx(1.0)
        assert driver.pump() == 1
        assert fired == [1.0, 2.0]
        assert driver.clock_regressions == 0

    def test_idle_real_time_pump_advances_clock_and_sleeps_poll(self):
        home = SafeHome()
        sim = home.sim
        clock = FakeClock()
        driver = RealTimeDriver(home, speedup=10.0, poll_s=0.25,
                                monotonic=clock.monotonic,
                                sleep=clock.sleep)
        driver.start()
        clock.t = 1.0                  # 10 virtual seconds earned
        assert driver.pump() == 0
        assert sim.now == pytest.approx(10.0)  # clock tracks wall
        assert clock.t == pytest.approx(1.25)  # then one poll sleep
        assert driver.behind_s() == pytest.approx(0.25)

    def test_real_time_pumps_of_a_durable_home_replay_equal(self):
        home = menu_home(durability=True)
        home.invoke("cool-living")
        home.invoke("night-setback", at=1.0)
        clock = FakeClock()
        driver = RealTimeDriver(home, speedup=4.0, poll_s=0.1,
                                monotonic=clock.monotonic,
                                sleep=clock.sleep)
        driver.start()
        for pumps in range(1, 200):
            driver.pump()
            if pumps == 3:             # a rebuilt simulator paces on
                rebuilt = home.sim
                home.migrate("wv")
                assert home.sim is not rebuilt
            if home.controller.all_done():
                break
        assert home.controller.all_done()
        assert home.sim.now >= 2.5 and driver.clock_regressions == 0
        assert home.migrations[0].at_time < home.sim.now
        # One journaled ``run`` per pump, idle ones included.
        runs = [r for r in home.wal.records if r.type == "run"]
        assert len(runs) == pumps > 3
        assert all(r.payload["until"] is not None for r in runs)
        assert_twin_replays_equal(home)
        assert check_run(home.run(), home.initial).ok
        assert_twin_replays_equal(home)

    def test_speedup_must_be_positive(self):
        with pytest.raises(ServeError):
            RealTimeDriver(SafeHome(), speedup=0)
        with pytest.raises(ServeError):
            RealTimeDriver(SafeHome(), speedup=-5)

    def test_parse_speedup(self):
        assert math.isinf(parse_speedup("inf"))
        assert math.isinf(parse_speedup("virtual"))
        assert parse_speedup("100") == 100.0
        assert parse_speedup(" 2.5 ") == 2.5
        with pytest.raises(ServeError):
            parse_speedup("fast")
        with pytest.raises(ServeError):
            parse_speedup("-1")


# -- admission control ---------------------------------------------------------


class TestAdmission:
    def test_full_queue_rejects_with_growing_retry_after(self):
        control = AdmissionControl(capacity=2, retry_after_s=0.1)
        control.register("a", weight=1)
        control.register("b", weight=2)
        control.offer("a", "t1")
        control.offer("a", "t2")
        with pytest.raises(AdmissionRejected) as excinfo:
            control.offer("a", "t3")
        assert excinfo.value.tenant == "a"
        # Backlog of 2 behind the rejected request, weight 1.
        assert excinfo.value.retry_after_s == pytest.approx(0.3)
        # A heavier tenant drains faster: its hint is proportionally
        # shorter for the same backlog.
        control.offer("b", "t1")
        control.offer("b", "t2")
        with pytest.raises(AdmissionRejected) as excinfo_b:
            control.offer("b", "t3")
        assert excinfo_b.value.retry_after_s == \
            pytest.approx(excinfo.value.retry_after_s / 2)
        state = control.tenant("a")
        assert state.offered == 3 and state.rejected == 1
        assert state.max_depth == 2

    def test_weighted_fair_dequeue_holds_exact_ratios(self):
        control = AdmissionControl(capacity=100)
        control.register("heavy", weight=3)
        control.register("light", weight=1)
        for i in range(40):
            control.offer("heavy", f"h{i}")
            control.offer("light", f"l{i}")
        batch = control.drain(16)
        heavy = sum(1 for t in batch if t.startswith("h"))
        light = sum(1 for t in batch if t.startswith("l"))
        # Deficit round-robin under saturation: exactly weight ratios.
        assert (heavy, light) == (12, 4)
        # FIFO within a tenant.
        assert [t for t in batch if t.startswith("h")][:3] == \
            ["h0", "h1", "h2"]

    def test_idle_tenant_forfeits_credit(self):
        control = AdmissionControl(capacity=100)
        control.register("a", weight=4)
        control.register("b", weight=1)
        # 'a' idles for what would be many rounds...
        for i in range(8):
            control.offer("b", f"b{i}")
        control.drain(8)
        assert control.tenant("a").credit == 0.0
        # ...then bursts: it gets its weight share, not banked credit.
        for i in range(20):
            control.offer("a", f"a{i}")
            control.offer("b", f"b{i}")
        batch = control.drain(10)
        assert sum(1 for t in batch if t.startswith("a")) == 8
        assert sum(1 for t in batch if t.startswith("b")) == 2

    def test_registration_and_bounds_validation(self):
        control = AdmissionControl(capacity=4)
        control.register("a")
        with pytest.raises(ServeError):
            control.register("a")              # duplicate
        with pytest.raises(ServeError):
            control.register("zero", weight=0)
        with pytest.raises(ServeError):
            control.tenant("ghost")
        with pytest.raises(ServeError):
            AdmissionControl(capacity=0)

    def test_drop_all_empties_queues_and_counts(self):
        control = AdmissionControl(capacity=8)
        control.register("a")
        for i in range(5):
            control.offer("a", i)
        dropped = control.drop_all()
        assert dropped == [0, 1, 2, 3, 4]
        assert control.total_depth() == 0
        assert control.tenant("a").dropped == 5


# -- SLO metrics ---------------------------------------------------------------


class TestRollingWindow:
    def test_eviction_keeps_only_the_window(self):
        window = RollingWindow(window_s=10.0, buckets=2, resolution=1e-3)
        window.add(0.0, 1.0)
        window.add(12.0, 9.0)          # evicts the t=0 bucket
        merged = window.merged(12.0)
        assert merged.count == 1
        summary = window.snapshot(12.0)
        assert summary["n"] == 1
        assert summary["p50"] == pytest.approx(9.0, abs=1e-3)
        assert summary["window_s"] == 10.0

    def test_quantile_summary_shape(self):
        window = RollingWindow(window_s=60.0)
        for value in range(1, 101):
            window.add(1.0, value / 100.0)
        summary = quantile_summary(window.merged(1.0))
        assert set(summary) == {"n", "p50", "p95", "p99"}
        assert summary["n"] == 100
        assert summary["p50"] == pytest.approx(0.5, abs=2e-3)
        assert summary["p95"] == pytest.approx(0.95, abs=2e-3)

    def test_validation(self):
        with pytest.raises(ServeError):
            RollingWindow(window_s=0)
        with pytest.raises(ServeError):
            RollingWindow(window_s=1.0, buckets=0)


# -- the hub -------------------------------------------------------------------


def small_hub(tenants=2, **config_kwargs):
    hub = ServeHub(build_serve_home(seed=5),
                   ServeConfig(**config_kwargs))
    for i in range(tenants):
        hub.add_tenant(f"t{i}")
    return hub


class TestServeHub:
    def test_pump_then_finalize_matches_batch_run(self):
        def build(seed):
            home = SafeHome(visibility="ev", seed=seed)
            home.load_workload(cooling_scenario(seed=seed))
            return home

        batch = build(5)
        batch_result = batch.run()

        served = build(5)
        # Pump in arbitrary slices, the way a serve loop would.
        while served.sim.pending_events:
            served.pump(until=served.sim.now + 37.0)
        served_result = served.run()

        def rows(result):
            return [(run.routine.name, run.status.name,
                     round(run.finish_time, 9)) for run in result.runs]

        assert rows(served_result) == rows(batch_result)
        assert served.report(check_final=True).row() == \
            batch.report(check_final=True).row()

    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize("model", MODELS)
    def test_a_durable_served_home_reports_and_replays_like_a_plain_one(
            self, model, execution):
        def served(home):
            hub = ServeHub(home, ServeConfig(admit_batch=3))
            for index in range(4):
                hub.add_tenant(f"t{index}", weight=1 + index % 2)
            run_closed_loop(hub, per_tenant=6, seed=11)
            return hub.final_report_json()

        durable = menu_home(model, execution,
                            durability=DurabilityConfig(checkpoint_every=8))
        assert served(durable) == served(menu_home(model, execution))
        assert sum(r.type == "run" for r in durable.wal.records) > 2
        assert_twin_replays_equal(durable)

    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize("model", MODELS)
    def test_a_ticket_ends_with_its_invocation(self, model, execution):
        """Two ``long`` tickets on the hub machine's plug home.  Under
        OCC ticket 0's first attempt aborts at validation (t=61.2) and
        its retry commits (t=122.3): the ticket reports that commit, and
        the tenant counts one commit per ticket."""
        home = plug_home(model, execution)
        hub = ServeHub(home)
        hub.add_tenant("t0")
        tickets = [hub.submit("t0", "long") for _ in range(2)]
        hub.serve_until_idle()
        invocations = home.controller.invocations
        assert len(invocations) == 2
        for ticket in tickets:
            last = invocations[ticket.invocation]
            assert (ticket.status, ticket.finished_v) == \
                (last.status.value, last.finish_time)
        assert all(ticket.status == "committed" for ticket in tickets)
        tenant = hub.status()["tenants"]["t0"]
        assert (tenant["committed"], tenant["aborted"]) == (2, 0)
        if model == "occ":
            assert len(home.controller.runs) == 3

    def test_a_served_on_disk_log_is_clean_to_fsck(self, tmp_path, capsys):
        wal_dir = str(tmp_path / "wal")
        home = menu_home("ev", "parallel", wal_dir=wal_dir)
        hub = ServeHub(home)
        hub.add_tenant("t0")
        hub.add_tenant("t1")
        run_closed_loop(hub, per_tenant=8, seed=2)
        hub.final_report()
        home.close_wal()
        assert cli_main(["fsck", wal_dir]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "clean" and doc["clean_close"]
        assert doc["verify"]["ok"] and doc["verify"]["oracle"]["ok"]

    @staticmethod
    def crashing_hub():
        """Six tickets queued on a durable home armed to crash after 12
        events; the hub admits two at a time."""
        home = menu_home("ev", durability=True)
        hub = ServeHub(home, ServeConfig(admit_batch=2))
        hub.add_tenant("t0")
        hub.add_tenant("t1")
        tickets = [hub.submit(f"t{i % 2}", name)
                   for i, name in enumerate(["cool-living", "ventilate",
                                             "night-setback", "morning-warm",
                                             "cool-bedroom", "lights-evening"])]
        home.crash(after_events=12)
        return home, hub, tickets

    @pytest.mark.parametrize("threaded", [False, True],
                             ids=["inline", "threaded"])
    def test_a_crash_while_serving_strands_no_ticket(self, threaded):
        home, hub, tickets = self.crashing_hub()
        if threaded:
            hub.start()
            thread = hub._thread
            thread.join(30.0)
            assert not thread.is_alive()     # the crash stopped the loop
            with pytest.raises(HubCrashedError, match="home-0"):
                hub.shutdown(drain=True, timeout=30.0)
        else:
            with pytest.raises(HubCrashedError, match="home-0"):
                hub.serve_until_idle()
        assert home.crashed
        # Every ticket is still queued or was admitted before the crash.
        queued = [t for t in tickets if t.status == "queued"]
        assert queued and hub.admission.total_depth() == len(queued)
        assert all(t.invocation is not None for t in tickets
                   if t not in queued)
        assert home.recover().crash_events == 12
        assert check_run(home.run(), home.initial).ok
        assert_twin_replays_equal(home)

    @pytest.mark.parametrize("threaded", [False, True],
                             ids=["inline", "threaded"])
    def test_serving_a_crashed_home_again_is_refused_before_admitting(
            self, threaded):
        """A second serve call after the crash used to drain a batch that
        the crashed home's invoke() then refused: two tickets read
        ``queued`` but sat in no queue."""
        home, hub, tickets = self.crashing_hub()
        with pytest.raises(HubCrashedError, match="home-0"):
            hub.serve_until_idle()
        queued = [t for t in tickets if t.status == "queued"]
        depth = hub.admission.total_depth()
        assert depth == len(queued) == 4
        with pytest.raises(HubCrashedError, match="home-0"):
            hub.start() if threaded else hub.serve_until_idle()
        assert hub._thread is None
        assert hub.admission.total_depth() == depth
        assert all(t.status == "queued"
                   and any(t is waiting for waiting
                           in hub.admission.tenant(t.tenant).queue)
                   for t in queued)

    def test_submit_requires_registered_tenant_and_known_home(self):
        hub = small_hub()
        with pytest.raises(ServeError):
            hub.submit("ghost", "cool-living")
        with pytest.raises(ServeError):
            hub.add_tenant("t9", home="no-such-home")

    def test_bad_routine_is_refused_at_submit_not_in_the_loop(self):
        # An unknown name or a spec naming an unknown device used to be
        # queued and then raise inside the serve loop, stranding the
        # tickets admitted beside it.
        hub = small_hub()
        first = hub.submit("t0", "cool-living")
        with pytest.raises(RoutineSpecError):
            hub.submit("t0", "no-such-routine")
        with pytest.raises(RoutineSpecError):
            hub.submit("t0", {"routineName": "x", "commands": [
                {"device": "no-such-device", "action": "ON"}]})
        third = hub.submit("t0", {"routineName": "x", "commands": [
            {"device": "bed-light", "action": "ON", "durationSec": 0.2}]})
        assert hub.admission.tenant("t0").offered == 2
        hub.serve_until_idle()
        assert [first.status, third.status] == ["committed", "committed"]
        assert first.done.is_set() and third.done.is_set()

    def test_serve_until_idle_runs_everything_inline(self):
        hub = small_hub()
        tickets = [hub.submit("t0", "cool-living"),
                   hub.submit("t1", "night-setback")]
        hub.serve_until_idle()
        assert all(t.status == "committed" for t in tickets)
        assert all(t.done.is_set() for t in tickets)
        assert all(t.latency_v > 0 for t in tickets)
        status = hub.status()
        assert status["state"] == "stopped"
        assert status["config"]["speedup"] is None   # inf -> JSON null
        assert status["in_flight"] == 0
        assert status["latency"]["total"]["n"] == 2

    def test_graceful_drain_finishes_in_flight_and_rejects_new(self):
        hub = small_hub()
        hub.start()
        tickets = [hub.submit("t0", "cool-living") for _ in range(5)]
        hub.shutdown(drain=True, timeout=30.0)
        assert all(t.status == "committed" for t in tickets)
        with pytest.raises(AdmissionRejected) as excinfo:
            hub.submit("t0", "cool-living")
        assert excinfo.value.retry_after_s is None   # do-not-retry
        # Idempotent.
        hub.shutdown(drain=True)

    def test_hard_shutdown_drops_queued_tickets(self):
        hub = small_hub()
        tickets = [hub.submit("t0", "cool-living") for _ in range(3)]
        hub.shutdown(drain=False)
        assert all(t.status == "dropped" for t in tickets)
        assert all(t.done.is_set() for t in tickets)
        assert hub.admission.tenant("t0").dropped == 3
        assert hub.status()["queue"]["depth"] == 0

    def test_closed_loop_respects_weights_under_saturation(self):
        # Saturate a tiny admit batch with weighted tenants: admitted
        # counts track the 3:1 weights while both stay backlogged.
        hub = ServeHub(build_serve_home(seed=2),
                       ServeConfig(admit_batch=4))
        hub.add_tenant("heavy", weight=3)
        hub.add_tenant("light", weight=1)
        for _ in range(24):
            hub.submit("heavy", "cool-living")
            hub.submit("light", "cool-living")
        batch = hub._admit_batch()
        assert batch == 4
        counts = {s.name: s.admitted for s in hub.admission.tenants()}
        assert counts == {"heavy": 3, "light": 1}
        hub.serve_until_idle()
        assert all(s.depth == 0 for s in hub.admission.tenants())

    def test_status_shape_is_deterministic_json(self):
        hub = small_hub()
        run_closed_loop(hub, per_tenant=5, seed=3)
        payload = json.loads(hub.status_json())
        assert set(payload) == {"state", "config", "homes", "queue",
                                "tenants", "latency", "in_flight"}
        assert "wall" not in payload
        wall = json.loads(hub.status_json(include_wall=True))["wall"]
        assert set(wall) == {"elapsed_s", "behind_s",
                             "clock_regressions"}
        assert wall["clock_regressions"] == 0

    def test_final_report_has_no_wall_fields(self):
        hub = small_hub()
        run_closed_loop(hub, per_tenant=4, seed=1)
        report = json.loads(hub.final_report_json())
        assert set(report) == {"config", "homes", "tenants", "latency",
                               "virtual_makespan"}
        assert "wall" not in report
        for row in report["homes"].values():
            assert "serial_order" in row

    def test_hub_requires_homes(self):
        with pytest.raises(ServeError):
            ServeHub({})


class TestStatusServer:
    def test_http_status_endpoint(self):
        hub = small_hub()
        run_closed_loop(hub, per_tenant=3, seed=9)
        server = StatusServer(hub, port=0)
        try:
            server.start()
        except OSError:
            pytest.skip("cannot bind a loopback socket here")
        try:
            url = f"http://127.0.0.1:{server.port}/status"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
                payload = json.loads(response.read())
            assert payload["state"] == "stopped"
            assert "wall" in payload
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=5)
        finally:
            server.stop()
