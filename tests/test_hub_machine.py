"""A stateful model check over the public ``SafeHome`` surface.

The per-feature grids each pin one feature at a time; the states that
break a durable hub sit where features meet — a crash while an EV lease
is outstanding, a migration after a policy recovery, a crash after a
migration.  This machine walks a durable 4-device hub through arbitrary
interleavings of the public calls:

* ``invoke`` (now or at an offset) of a bank holding one long routine,
  so EV takes pre- and post-leases;
* ``cancel`` of a live run, arrived or not;
* ``plan_failure`` of a device, with or without a restart;
* ``run`` up to ``now + delta``;
* ``serve`` of bank names through a virtual-paced ``ServeHub``, whose
  slices are journaled ``run`` inputs;
* a hub crash at ``events + k`` — always a ``CrashPlan`` and always
  through ``run_crashing``, the one crash driver — recovered in a drawn
  mode (``replay`` or ``policy``);
* ``migrate`` to a drawn visibility model (except across OCC once a
  cancel was journaled: an open finding, pinned below);
* ``close_and_fsck``: the hub's log lives in a temporary directory;
  ``close_wal()`` it, and ``fsck_home_dir`` must find it clean, closed
  cleanly and verified by replay.  The hub carries on as the twin fsck
  verified (in memory: a closed log does not grow).

After every step a fresh twin built from the log (``replay.build_home``
plus ``replay.replay`` to the live hub's closing seal) must verify and
reach the live hub's ``state_digest``, that digest must equal the one
computed from empty caches, and every bank routine must still equal
the deep copy taken at registration, and under EV no live run may hold
a ready command whose lineage entry it could take (a lost waiter).
Every unbounded slice is capped at ``SLICE_EVENTS``, so a run that
never finishes fails as a livelock instead of hanging a drain.  At the
end the hub runs dry, the congruence oracle must pass, and under EV the
retained order and the closure must be empty.

``REPRO_HYPOTHESIS_EXAMPLES=200 python -m pytest -q -p no:cacheprovider
--hypothesis-seed=18 tests/test_hub_machine.py`` is the deep run
(``scripts/check.sh``).
"""

import copy
import shutil
import tempfile
from functools import partial

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.core.controller import RoutineStatus
from repro.errors import MigrationError
from repro.hub.durability import (CrashPlan, DurabilityConfig, replay,
                                  run_crashing, state_digest)
from repro.hub.durability.fsck import fsck_home_dir
from repro.hub.safehome import SafeHome
from repro.metrics.oracle import check_run
from repro.serve import ServeHub
from tests.test_checkpoint_equivalence import scratch_digest

MODELS = ("wv", "gsv", "psv", "ev", "occ")
EXECUTIONS = ("serial", "parallel")
RECOVERY = ("replay", "policy")
DEVICES = [f"plug-{i}" for i in range(4)]


def _spec(name, *steps):
    return {"routineName": name, "commands": [
        {"device": device, "action": action, "durationSec": duration}
        for device, action, duration in steps]}


#: The bank: ``long`` holds plug-0 for a minute before touching plug-1,
#: so the short routines on plug-1 are placed ahead of it (pre-lease)
#: and plug-0 is released before it finishes (post-lease).
BANK = [
    _spec("long", ("plug-0", "ON", 60.0), ("plug-1", "ON", 1.0)),
    _spec("flip", ("plug-1", "OFF", 1.0), ("plug-2", "ON", 2.0)),
    _spec("pair", ("plug-2", "OFF", 1.0), ("plug-3", "ON", 1.0)),
    _spec("sweep", ("plug-3", "OFF", 2.0), ("plug-0", "OFF", 1.0)),
]
NAMES = [spec["routineName"] for spec in BANK]

#: Virtual offsets in half seconds (exact in binary, so time stays
#: comparable across a replay).
OFFSETS = st.integers(0, 40).map(lambda k: k / 2)


def plug_home(model, execution="serial", wal_dir=None):
    """A durable 4-plug hub with :data:`BANK` registered."""
    home = SafeHome(visibility=model, execution=execution, seed=5,
                    durability=DurabilityConfig(checkpoint_every=8),
                    wal_dir=wal_dir)
    for name in DEVICES:
        home.add_device("plug", name)
    for spec in BANK:
        home.register_routine_spec(spec)
    return home


#: Events one slice of a machine hub may process.  A run that never
#: finishes keeps the failure detector ticking forever, so a lost
#: wake-up would hang a drain (``serve``, ``crash``, the teardown run);
#: with the bound it fails as a ``SimulationError`` ("likely a
#: livelock").  Bounded and unbounded runs are trace-equivalent.
SLICE_EVENTS = 20_000


def bounded(home):
    """``home`` with every unbounded slice capped at SLICE_EVENTS."""
    pump = home.pump

    def bounded_pump(until=None, max_events=None, detector=None):
        if max_events is None:
            max_events = home.sim.events_processed + SLICE_EVENTS
        return pump(until=until, max_events=max_events, detector=detector)

    home.pump = bounded_pump
    return home


class HubMachine(RuleBasedStateMachine):
    """One durable hub; every rule is a public ``SafeHome`` call."""

    home = None

    @initialize(model=st.sampled_from(MODELS),
                execution=st.sampled_from(EXECUTIONS))
    def setup(self, model, execution):
        self.model = model
        self.wal_dir = tempfile.mkdtemp(prefix="hub-machine-")
        self.home = bounded(plug_home(model, execution, self.wal_dir))
        self.registered = [(routine, copy.deepcopy(routine))
                           for routine in self.home.bank]
        self.cancelled = False

    def live_runs(self):
        return [run for run in self.home.controller.runs if not run.done]

    # -- rules -------------------------------------------------------------------

    @rule(name=st.sampled_from(NAMES), offset=st.none() | OFFSETS)
    def invoke(self, name, offset):
        at = None if offset is None else self.home.sim.now + offset
        self.home.invoke(name, at=at)

    @precondition(lambda self: self.live_runs())
    @rule(pick=st.integers(0, 7))
    def cancel(self, pick):
        runs = self.live_runs()
        self.home.cancel(runs[pick % len(runs)])
        self.cancelled = True

    @rule(device=st.sampled_from(DEVICES), offset=OFFSETS,
          restart_after=st.none() | OFFSETS)
    def plan_failure(self, device, offset, restart_after):
        fail_at = self.home.sim.now + offset
        self.home.plan_failure(device, fail_at, None if restart_after is None
                               else fail_at + 0.5 + restart_after)

    @rule(delta=OFFSETS)
    def run(self, delta):
        self.home.run(until=self.home.sim.now + delta)

    @rule(names=st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
          tenants=st.integers(1, 3))
    def serve(self, names, tenants):
        """Submit ``names`` round-robin over ``tenants`` tenants to a
        served hub over this home, serve until idle, read the results."""
        hub = ServeHub(self.home)
        for index in range(tenants):
            hub.add_tenant(f"t{index}")
        tickets = [hub.submit(f"t{index % tenants}", name)
                   for index, name in enumerate(names)]
        hub.serve_until_idle()
        hub.results()
        assert all(t.status in ("committed", "aborted") for t in tickets)

    @rule(k=st.integers(1, 40), mode=st.sampled_from(RECOVERY))
    def crash(self, k, mode):
        plan = CrashPlan(after_events=self.home.sim.events_processed + k)
        run_crashing(self.home, [plan], partial(self.home.recover, mode))
        # A crash the drained queue never reached does not outlive the
        # step: the next rule starts from a hub with nothing scheduled.
        self.home.cancel_crash()

    @rule(to=st.sampled_from(MODELS))
    def migrate(self, to):
        if self.cancelled and "occ" in (self.model, to):
            # Open, pinned below (test_a_cancel_names_one_routine_under_
            # every_model): a cancel names a routine id, and OCC's
            # retries take ids no other model allocates.
            return
        self.home.migrate(to)
        self.model = to

    @precondition(lambda self: self.home.wal_dir is not None)
    @rule()
    def close_and_fsck(self):
        self.home.close_wal()
        report = fsck_home_dir(self.home.wal_dir)
        assert (report.status, report.clean_close) == ("clean", True)
        assert report.verify["ok"], report.verify["error"]
        self.home = bounded(report.replayed_home)

    # -- checked after every step -----------------------------------------------

    @invariant()
    def check(self):
        if self.home is None:
            return
        records = list(self.home.wal.records)
        twin = replay.build_home(records)
        replay.replay(twin, records, end=self.home.wal.observed())
        assert state_digest(twin._capture_state()) == \
            state_digest(self.home._capture_state())
        for routine, registered in self.registered:
            assert routine == registered
            assert self.home.bank.get(routine.name) == registered

    @invariant()
    def digest_is_incremental(self):
        if self.home is None:
            return
        assert state_digest(self.home._capture_state()) == \
            scratch_digest(self.home)

    @invariant()
    def no_run_misses_a_free_lineage(self):
        """Under EV, no live run holds a ready command whose lineage
        entry it could take now: a release wakes every run blocked on
        the device, so a run left behind is a lost waiter (and would
        hold its routine open while the failure detector ticks on)."""
        if self.home is None or self.model != "ev":
            return
        controller = self.home.controller
        # (looked up, not through table.lineage(), which creates one)
        lineages = {lineage.device_id: lineage
                    for lineage in controller.table.lineages()}
        for run in self.live_runs():
            if run.abort_pending:
                continue
            if run.plan is not None:
                ready = run.plan.ready
            elif run.inflight_count or \
                    run.next_index >= len(run.commands):
                continue
            else:
                ready = [run.next_index]
            for index in ready:
                lineage = lineages.get(run.commands[index].device_id)
                entry = lineage and lineage.entry_for(run.routine_id)
                if entry is None:
                    continue        # not placed yet
                assert not lineage.can_acquire(
                    run.routine_id, finished=controller.is_finished,
                    wants_read=entry.reads), (run.routine_id, index)

    def teardown(self):
        if self.home is None:
            return
        try:
            result = self.home.run()
            self.check()
            oracle = check_run(result, self.home.initial)
            assert oracle.ok, [v.to_dict() for v in oracle.violations]
            if self.model == "ev":
                table = self.home.controller.table
                assert not table.order.successors
                assert not table.order.predecessors
                assert not table.order.frontier
                assert not table.closure.bit
        finally:
            self.home.close_wal()
            shutil.rmtree(self.wal_dir, ignore_errors=True)


HubMachine.TestCase.settings = settings(
    stateful_step_count=25,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much])
TestHubMachine = HubMachine.TestCase


# -- sequences no grid reaches, pinned -----------------------------------------

def start(model, execution="serial"):
    machine = HubMachine()
    machine.setup(model=model, execution=execution)
    machine.check()
    return machine


def step(machine, rule_name, **kwargs):
    getattr(machine, rule_name)(**kwargs)
    machine.check()


def test_a_lease_outstanding_across_a_crash():
    """EV: ``flip`` is pre-leased ahead of ``long`` on plug-1, and the
    hub dies while its command there is in flight; recovery keeps the
    lease's order."""
    machine = start("ev")
    step(machine, "invoke", name="long", offset=None)
    step(machine, "invoke", name="flip", offset=0.5)
    step(machine, "run", delta=0.5)
    home = machine.home
    assert home.controller.scheduler_stats["pre_leases"] == 1
    assert [run.status for run in home.controller.runs] == \
        [RoutineStatus.RUNNING] * 2
    step(machine, "crash", k=1, mode="replay")
    assert [r.resumed for r in home.recoveries] == [[0, 1]]
    assert home.controller.scheduler_stats["pre_leases"] == 1
    machine.teardown()


def test_a_migration_after_a_policy_recovery():
    """GSV aborts the routine the outage caught; the hub then moves to
    EV with that abort in its history."""
    machine = start("gsv", "parallel")
    step(machine, "invoke", name="long", offset=None)
    step(machine, "invoke", name="flip", offset=None)
    step(machine, "run", delta=1.0)
    step(machine, "crash", k=1, mode="policy")
    home = machine.home
    assert [r.aborted for r in home.recoveries] == [[0]]
    step(machine, "migrate", to="ev")
    assert [m.from_model for m in home.migrations] == ["gsv"]
    machine.teardown()


def test_a_crash_and_recovery_after_a_migration():
    machine = start("wv")
    step(machine, "invoke", name="long", offset=None)
    step(machine, "invoke", name="pair", offset=None)
    step(machine, "run", delta=1.0)
    step(machine, "migrate", to="ev")
    step(machine, "invoke", name="flip", offset=None)
    step(machine, "crash", k=3, mode="replay")
    home = machine.home
    assert len(home.migrations) == len(home.recoveries) == 1
    machine.teardown()


def test_serve_then_a_replay_recovery_then_serve():
    machine = start("ev")
    step(machine, "serve", names=["long", "flip", "pair"], tenants=2)
    step(machine, "invoke", name="long", offset=None)
    step(machine, "invoke", name="flip", offset=0.5)
    step(machine, "crash", k=3, mode="replay")
    step(machine, "serve", names=["sweep", "flip", "long"], tenants=3)
    assert len(machine.home.recoveries) == 1
    machine.teardown()


def test_serve_then_a_policy_recovery_then_serve():
    machine = start("gsv", "parallel")
    step(machine, "serve", names=["long", "pair", "sweep"], tenants=2)
    step(machine, "invoke", name="long", offset=None)
    step(machine, "invoke", name="flip", offset=None)
    step(machine, "crash", k=2, mode="policy")
    step(machine, "serve", names=["pair", "flip"], tenants=2)
    assert [r.mode for r in machine.home.recoveries] == ["policy"]
    machine.teardown()


def test_serve_then_a_migration_then_serve():
    machine = start("psv")
    step(machine, "serve", names=["long", "flip", "pair", "sweep"],
         tenants=2)
    step(machine, "migrate", to="ev")
    step(machine, "serve", names=["long", "flip", "pair"], tenants=3)
    assert [m.to_model for m in machine.home.migrations] == ["ev"]
    machine.teardown()


# -- what the machine found, as minimal fixtures --------------------------------

class TestCounterexamples:
    @pytest.mark.parametrize("model", MODELS)
    def test_a_routine_cancelled_before_it_arrives_stays_aborted(self,
                                                                 model):
        """GSV, PSV and EV queued the aborted run when its arrival
        fired, ran it and committed it, abort reason and all."""
        home = plug_home(model)
        run = home.invoke("long")
        home.cancel(run)
        result = home.run()
        assert run.status is RoutineStatus.ABORTED and not run.executions
        assert home.state_of("plug-0") == "OFF"
        assert check_run(result, home.initial).ok

    def test_a_migration_replays_a_fired_crash_at_the_time_it_fired(self):
        """WV crashed after event 4 at t=0.04; GSV reaches its event 4
        at 0.09, so the next input (at 0.04) was in GSV's past."""
        home = plug_home("wv")
        for name in ("long", "flip", "pair"):
            home.invoke(name)
        [report] = run_crashing(home, [CrashPlan(after_events=4)],
                                home.recover)
        home.invoke("sweep")
        home.migrate("gsv")
        scheduled = [r.payload for r in home.wal.records
                     if r.type == "crash-scheduled"]
        assert scheduled == [{"at": report.crash_time, "after_events": None}]
        assert check_run(home.run(), home.initial).ok

    def test_a_migration_stops_each_run_where_the_next_input_found_it(
            self):
        """WV runs two ``long`` at once and drains at t=61.7; GSV runs
        them one after the other, so replaying ``run()`` to the end put
        the next input (at 61.7) in GSV's past."""
        home = plug_home("wv")
        home.invoke("long", at=0.5)
        home.invoke("long", at=0.5)
        home.run()
        drained = home.sim.now
        home.invoke("long")
        home.migrate("gsv")
        assert home.sim.now == drained
        assert [r.payload["until"] for r in home.wal.records
                if r.type == "run"] == [drained]
        assert check_run(home.run(), home.initial).ok

    def test_a_crash_the_target_never_reaches_is_spent_by_recovery(self):
        """GSV crashes at t=65 with ``flip`` still queued; WV drains at
        t=61, so the crash stayed scheduled after the migration and
        killed the next run."""
        home = plug_home("gsv")
        for name in NAMES:
            home.invoke(name)
        run_crashing(home, [CrashPlan(at=65.0)], home.recover)
        home.migrate("wv")
        home.invoke("long")
        result = home.run()
        assert not home.crashed
        assert check_run(result, home.initial).ok

    def test_gsv_isolation_admits_a_window_that_closes_as_it_opens(self):
        """``flip`` is admitted at t=60.09 and aborts on the spot (plug-1
        is down), and ``long`` is admitted at the same instant: the
        oracle ordered the equal starts by routine id and reported an
        overlap of one point."""
        home = plug_home("gsv")
        home.invoke("long", at=1.0)
        home.invoke("flip", at=0.5)
        home.plan_failure("plug-1", 0.0)
        home.invoke("long")
        result = home.run()
        flip = result.runs[1]
        assert flip.start_time == flip.finish_time == result.runs[0].start_time
        assert check_run(result, home.initial).ok

    def test_a_device_that_fails_again_after_a_restart_ends_down(self):
        """plug-0 fails, restarts and fails again under ``long``, whose
        aborted write stays on the device until it comes back.  Serial
        validation took any restart to mean "up at the end" and called
        the GSV run unserializable."""
        home = plug_home("gsv")
        home.invoke("long", at=0.5)
        home.plan_failure("plug-0", 0.7, restart_at=1.2)
        home.plan_failure("plug-0", 2.5)
        result = home.run()
        assert [kind for kind, _device, _t in result.detection_events] == \
            ["failure", "restart", "failure"]
        assert home.state_of("plug-0") == "ON"
        assert check_run(result, home.initial).ok

    def test_the_detector_resumes_when_work_arrives_after_idle(self):
        """plug-1's failure plan starts the detector, which stops pinging
        at t=1 with nothing to run and never resumed: plug-0 failing
        under the cancelled ``long`` went unseen, so the rollback it
        could not take looked like an aborted write that survived."""
        home = plug_home("wv")
        home.plan_failure("plug-1", 0.0)
        home.run(until=1.0)
        run = home.invoke("long")
        home.run(until=1.2)
        home.cancel(run)
        home.plan_failure("plug-0", 1.5)
        result = home.run()
        assert [(kind, device) for kind, device, _t in
                result.detection_events] == [("failure", 1), ("failure", 0)]
        assert check_run(result, home.initial).ok

    @pytest.mark.parametrize("execution, invocations, failure", [
        ("serial", [("long", None), ("flip", None), ("pair", 1.5)],
         ("plug-3", 0.0)),
        ("parallel", [("long", None), ("long", None)], ("plug-0", 0.5)),
    ], ids=["three-routines", "two-longs"])
    def test_occ_rollback_keeps_a_running_writers_value(
            self, execution, invocations, failure):
        """``three-routines`` is the smallest home of
        ``tests/test_regressions.py::TestOccRollbackOverAnUncommittedWrite``:
        ``flip`` writes plug-2 ``ON`` at t=1.08; ``pair`` overwrites it
        ``OFF`` and aborts at 2.61 (plug-3 is down).  Restoring the last
        committed ``OFF`` lost ``flip``'s write when it committed at 3.08;
        plug-2's write chain restores ``flip``'s live ``ON`` instead.
        ``two-longs``: both ``long`` write plug-1 ``ON``; the one that
        aborts (plug-0 is down) used to roll plug-1 back to ``OFF`` under
        the one that commits, and now restores that one's live ``ON``."""
        home = plug_home("occ", execution)
        for name, at in invocations:
            home.invoke(name, at=at)
        home.plan_failure(*failure)
        result = home.run()
        assert [v.invariant for v in
                check_run(result, home.initial).violations] == []

    @pytest.mark.xfail(strict=True, raises=MigrationError,
                       reason="a cancel names a routine id, and OCC's "
                              "retries take ids no other model allocates")
    def test_a_cancel_names_one_routine_under_every_model(self):
        """Open.  OCC aborts one of two ``long`` at validation and
        retries it as routine 2; cancelling the retry journals
        ``routine_id: 2``, which WV never allocates."""
        home = plug_home("occ")
        home.invoke("long")
        home.invoke("long")
        home.run(until=70.0)
        retry = home.controller.runs[2]
        assert retry.routine.trigger == "occ-retry" and not retry.done
        home.cancel(retry)
        home.migrate("wv")
