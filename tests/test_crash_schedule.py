"""One crash schedule, one crash driver.

``CrashPlan.seeded`` is the only draw on the ``hub-crashes`` stream and
``run_crashing`` the only crash -> run -> recover loop; fleet homes,
controlled homes, ``repro crash-recovery`` and the recovery bench all
go through them.  The two draws they replaced live on here, and only
here, as the reference the schedule must reproduce bit for bit: a
fleet home's crash times over a horizon, and a chaos run's crash event
indexes over the uninterrupted run's event count.
"""

import pytest

from repro.cli import main as cli_main
from repro.errors import SafeHomeError
from repro.hub.durability import CrashPlan, run_crashing
from repro.sim.random import RandomStreams
from repro.workloads import chaos
from repro.workloads.chaos import chaos_home, run_chaos

SEEDS = range(500)
COUNTS = range(7)


# -- the replaced draws (reference only) -------------------------------------

def ref_crash_times(seed, crashes, horizon):
    """The fleet worker's draw: seed-derived, strictly increasing."""
    rng = RandomStreams(seed=seed).stream("hub-crashes")
    times = sorted(round(rng.uniform(0.0, horizon), 6)
                   for _ in range(crashes))
    distinct = []
    for t in times:
        if not distinct or t > distinct[-1]:
            distinct.append(t)
    return distinct


def ref_crash_events(seed, crashes, total_events):
    """The chaos run's draw over the uninterrupted run's events."""
    rng = RandomStreams(seed=seed).stream("hub-crashes")
    count = max(0, min(crashes, max(total_events - 1, 0)))
    return sorted(rng.sample(range(1, total_events), count)) \
        if count else []


# -- the schedule --------------------------------------------------------------

@pytest.mark.parametrize("horizon", (15.0, 60.0, 1590.9))
def test_time_schedule_equals_the_fleet_draw(horizon):
    for seed in SEEDS:
        for count in COUNTS:
            plans = CrashPlan.seeded(seed, count, horizon=horizon)
            assert all(plan.after_events is None for plan in plans)
            assert [plan.at for plan in plans] == \
                ref_crash_times(seed, count, horizon), (seed, count)


@pytest.mark.parametrize("horizon", (0.0, 2e-6, 1e-5))
def test_time_schedule_drops_duplicates_like_the_fleet_draw(horizon):
    """Horizons this short collide after rounding, so the dedupe (and
    its place after the sort) is what the comparison exercises."""
    collided = 0
    for seed in range(100):
        for count in COUNTS:
            times = [plan.at for plan in
                     CrashPlan.seeded(seed, count, horizon=horizon)]
            assert times == ref_crash_times(seed, count, horizon)
            collided += len(times) < count
    assert collided


@pytest.mark.parametrize("total_events", (1, 2, 50, 900))
def test_event_schedule_equals_the_chaos_draw(total_events):
    for seed in SEEDS:
        for count in COUNTS:
            plans = CrashPlan.seeded(seed, count, events=total_events)
            assert all(plan.at is None for plan in plans)
            assert [plan.after_events for plan in plans] == \
                ref_crash_events(seed, count, total_events), (seed, count)


def test_a_negative_count_is_refused():
    for kwargs in ({"horizon": 60.0}, {"events": 50}):
        with pytest.raises(ValueError, match="crash count must be >= 0"):
            CrashPlan.seeded(0, -1, **kwargs)


# -- the driver ----------------------------------------------------------------

class ScriptedHome:
    """Crashes exactly the plans named in ``fires``; logs every call."""

    def __init__(self, fires):
        self.fires = set(fires)
        self.calls = []
        self.crashed = False
        self.pending = None

    def crash(self, at=None, after_events=None):
        assert self.pending is None, "a crash is already scheduled"
        self.pending = CrashPlan(at=at, after_events=after_events)
        self.calls.append(("crash", self.pending))

    def run(self, max_events=None):
        self.calls.append(("run", max_events))
        if self.pending in self.fires:
            self.crashed, self.pending = True, None

    def recover(self):
        self.calls.append(("recover",))
        self.crashed = False
        return len(self.calls)


def test_driver_stops_at_the_first_unfired_crash_and_leaves_it_pending():
    plans = [CrashPlan(at=1.0), CrashPlan(at=2.0), CrashPlan(at=3.0)]
    home = ScriptedHome(fires=plans[:1])
    reports = run_crashing(home, plans, home.recover, max_events=99)
    assert home.calls == [("crash", plans[0]), ("run", 99), ("recover",),
                          ("crash", plans[1]), ("run", 99)]
    assert reports == [3]
    assert home.pending == plans[1] and not home.crashed


def test_driver_recovers_every_fired_crash_in_order():
    plans = CrashPlan.seeded(3, 4, events=40)
    home = ScriptedHome(fires=plans)
    assert run_crashing(home, plans, home.recover) == [3, 6, 9, 12]
    assert [call[1] for call in home.calls if call[0] == "crash"] == plans


def test_driver_on_a_real_hub_keeps_the_unfired_crash_scheduled():
    home = chaos_home("ev", seed=7, checkpoint_every=8)
    plans = [CrashPlan(after_events=20), CrashPlan(after_events=10 ** 6),
             CrashPlan(after_events=10 ** 6 + 1)]
    reports = run_crashing(home, plans, home.recover)
    assert [r.crash_events for r in reports] == [20]
    assert not home.crashed
    inputs = [r.type for r in home.wal.inputs()]
    assert inputs.count("crash-scheduled") == 2
    assert inputs[-2:] == ["crash-scheduled", "run"]
    assert "crash-cancelled" not in inputs
    with pytest.raises(SafeHomeError, match="already scheduled"):
        home.crash(after_events=10 ** 7)


# -- bad crash input fails up front, in CrashPlan ---------------------------------

@pytest.mark.parametrize("kwargs, message", [
    ({"crash_at": 2.0, "crash_event": 5}, "exactly one of at="),
    ({"crash_event": 0}, "after_events must be >= 1"),
])
def test_run_chaos_refuses_a_bad_point_before_running(monkeypatch, kwargs,
                                                      message):
    def no_home(*args, **kwargs):
        raise AssertionError("a hub was built for a bad crash point")

    monkeypatch.setattr(chaos, "chaos_home", no_home)
    with pytest.raises(ValueError, match=message):
        run_chaos(**kwargs)


def test_crash_recovery_cli_refuses_a_negative_count(capsys):
    assert cli_main(["crash-recovery", "--crashes", "-3"]) == 2
    assert "crash count must be >= 0, got -3" in capsys.readouterr().err


def test_fleet_cli_refuses_a_negative_count(capsys):
    assert cli_main(["fleet", "--homes", "2", "--crashes", "-1"]) == 2
    err = capsys.readouterr().err
    assert "bad fleet config: crashes must be >= 0, got -1" in err
