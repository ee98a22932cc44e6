"""User-initiated routine cancellation (a SafeHome extension: the paper
lists signal/interrupt injection as future OS-for-smart-homes work)."""

import pytest

from repro.core.controller import RoutineStatus
from repro.errors import RecoveryError
from repro.hub.durability import DurabilityConfig, replay
from repro.hub.durability.wal import WalRecord
from repro.hub.safehome import SafeHome
from repro.metrics.congruence import final_state_serializable
from tests.conftest import Home, routine


def build_home(visibility="ev", execution=None, durability=None):
    home = SafeHome(visibility=visibility, execution=execution,
                    durability=durability)
    home.add_device("plug", "a")
    home.add_device("plug", "b")
    home.register_routine_spec({
        "routineName": "slow",
        "commands": [
            {"device": "a", "action": "ON", "durationSec": 5},
            {"device": "b", "action": "ON", "durationSec": 60},
        ],
    })
    return home


class TestCancellation:
    def test_cancel_rolls_back(self):
        home = build_home()
        run = home.invoke("slow")
        home.cancel(run, at=10.0)
        result = home.run()
        assert run.status is RoutineStatus.ABORTED
        assert run.abort_reason == "cancelled by user"
        # Device a's ON was rolled back.
        assert result.end_state[0] == "OFF"

    def test_cancel_before_start_under_gsv(self):
        home = build_home(visibility="gsv")
        first = home.invoke("slow")
        queued = home.invoke("slow")
        home.cancel(queued, at=1.0)  # cancelled while still waiting
        home.run()
        assert first.status is RoutineStatus.COMMITTED
        assert queued.status is RoutineStatus.ABORTED
        assert queued.start_time is None or \
            queued.rolled_back_commands == 0

    def test_cancel_after_commit_is_noop(self):
        home = build_home()
        run = home.invoke("slow")
        home.cancel(run, at=1000.0)
        home.run()
        assert run.status is RoutineStatus.COMMITTED

    @pytest.mark.parametrize("execution, retried, at", [
        ("serial", 0, 70.0), ("parallel", 1, 125.0)])
    def test_a_timed_cancel_aborts_the_live_attempt_under_occ(
            self, execution, retried, at):
        """Two ``slow`` under OCC: one fails validation (serial: the
        first, at t=65.2; parallel: the second, at t=120.2) and is
        retried.  A cancel of it timed just after used to land on the
        aborted first attempt and do nothing while the retry went on to
        commit; it aborts the retry, and no retry follows."""
        home = build_home("occ", execution)
        invoked = [home.invoke("slow"), home.invoke("slow")]
        home.cancel(invoked[retried], at=at)
        result = home.run()
        assert invoked[1 - retried].status is RoutineStatus.COMMITTED
        attempts = [run for run in result.runs if run.invocation == retried]
        assert len(attempts) == 2 and len(result.runs) == 3
        assert attempts[0].abort_reason.startswith("validation conflict")
        assert home.controller.invocations[retried] is attempts[1]
        assert attempts[1].status is RoutineStatus.ABORTED
        assert attempts[1].abort_reason == "cancelled by user"
        assert result.end_state == {0: "ON", 1: "ON"}

    def test_cancel_releases_locks_for_waiters(self):
        home = Home(model="ev", n_devices=2)
        hog = home.submit(routine("hog", [(0, "H", 100.0)]), when=0.0)
        waiter = home.submit(routine("waiter", [(0, "W", 1.0)]),
                             when=1.0)
        home.sim.call_at(5.0, home.controller.request_abort, hog,
                         "cancelled by user")
        result = home.run()
        assert hog.status is RoutineStatus.ABORTED
        assert waiter.status is RoutineStatus.COMMITTED
        assert waiter.finish_time < 120.0
        assert result.end_state[0] == "W"
        assert final_state_serializable(result, home.initial)


@pytest.mark.parametrize("invocation", [-1, 1])
def test_replay_refuses_a_cancel_naming_no_invocation(invocation):
    """A journaled cancel names an invocation read back from disk: one
    the log never invoked is a RecoveryError naming the record."""
    home = build_home(durability=DurabilityConfig())
    home.cancel(home.invoke("slow"), at=10.0)
    home.run()
    records = list(home.wal.records)
    [index] = [i for i, record in enumerate(records)
               if record.type == "cancelled"]
    cancel = records[index]
    assert cancel.payload == {"invocation": 0, "at": 10.0}
    records[index] = WalRecord(cancel.seq, cancel.time, cancel.type,
                               {"invocation": invocation, "at": 10.0})
    with pytest.raises(RecoveryError, match=rf"\(seq {cancel.seq}\)"):
        replay.replay(replay.build_home(records), records)
