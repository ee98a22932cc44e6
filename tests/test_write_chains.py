"""The per-device write chain against a brute-force reference.

Hypothesis draws land / commit / abort steps by 1-4 routines on one
device of a controller.  A landing write goes through
``Controller._write_landed``, as the driver would deliver it; commit
and abort are the controller's own, so an abort restores through
``_rollback`` and ``_restore_device``.  The reference keeps every write
ever landed, in land order, and drops a routine's writes only when it
aborts: after every step the device must hold the newest write the
reference still keeps, or its initial state when it keeps none.
"""

from hypothesis import given, settings, strategies as st

from repro.core.command import Command, CommandExecution
from repro.core.undo import WriteChains
from repro.devices.driver import CommandOutcome
from tests.conftest import Home, routine

DEVICE = 0
ACTIONS = ("land", "land", "commit", "abort")


def land(controller, run, value):
    """Deliver one applied write of ``run`` the way the driver does."""
    device = controller.registry.get(DEVICE)
    prior = device.state
    device.apply(value, controller.sim.now, source=run.routine_id)
    execution = CommandExecution(Command(device_id=DEVICE, value=value))
    run.executions.append(execution)
    controller._write_landed(CommandOutcome.APPLIED, prior, run, execution,
                             lambda *_: None)


# A restore that goes missing takes four steps in a row (land, land over
# it, abort the top, abort the one under it), a wrong base six: each step
# draws a routine that is still live, and most of them land.
@settings(max_examples=400)
@given(model=st.sampled_from(("wv", "occ")), routines=st.integers(1, 4),
       data=st.data())
def test_the_device_holds_the_newest_surviving_write(model, routines, data):
    home = Home(model=model, n_devices=1)
    controller = home.controller
    device = controller.registry.get(DEVICE)
    runs = [controller.submit(routine(f"r{index}", [(DEVICE, "ON", 0.0)]))
            for index in range(routines)]
    history, aborted = [], set()
    for number in range(data.draw(st.integers(1, 30), label="steps")):
        live = [run for run in runs if not run.done]
        if not live:
            break
        run = data.draw(st.sampled_from(live), label="routine")
        action = data.draw(st.sampled_from(ACTIONS), label="action")
        if action == "land":
            value = f"r{run.routine_id}-{number}"
            land(controller, run, value)
            history.append((run.routine_id, value))
        elif action == "commit":
            controller.commit(run)
        else:
            controller.abort(run, "drawn")
            aborted.add(run.routine_id)
        survivors = [value for writer, value in history
                     if writer not in aborted]
        assert device.state == (survivors[-1] if survivors
                                else device.initial_state)


def test_an_abort_under_a_live_write_restores_nothing():
    """OCC's shape: B lands over A's live write.  A's abort leaves B's
    value; B's abort restores the base, not A's aborted write."""
    chains = WriteChains()
    chains.land(0, DEVICE, "A", prior="OFF")
    chains.land(1, DEVICE, "B", prior="A")
    assert chains.abort(0) == {}
    assert chains.abort(1) == {DEVICE: "OFF"}


def test_an_abort_over_a_live_write_restores_that_write():
    """The aborter's write tops A's live one: A's value comes back, and
    it is the base once A commits."""
    chains = WriteChains()
    chains.land(0, DEVICE, "A", prior="OFF")
    chains.land(1, DEVICE, "B", prior="A")
    assert chains.abort(1) == {DEVICE: "A"}
    chains.commit(0)
    assert chains.bases() == {DEVICE: "A"}


def test_a_commit_drops_the_writes_under_it():
    """C commits over A's and B's live writes: A committing later must
    not make its older write the base again, and B's abort has nothing
    left to undo."""
    chains = WriteChains()
    chains.land(0, DEVICE, "A", prior="OFF")
    chains.land(1, DEVICE, "B", prior="A")
    chains.land(2, DEVICE, "C", prior="B")
    chains.commit(2)
    chains.commit(0)
    assert chains.bases() == {DEVICE: "C"}
    assert chains.abort(1) == {}
