"""Tests for commands and routines."""

import pytest

from repro.core.command import Command, LONG_COMMAND_THRESHOLD_S
from repro.core.lineage import UNSET
from repro.core.routine import Routine, sequential
from repro.errors import RoutineSpecError


class TestCommand:
    def test_defaults(self):
        command = Command(device_id=1, value="ON")
        assert command.must and command.is_write and command.undoable

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Command(device_id=1, value="ON", duration=-1)

    def test_read_takes_no_value(self):
        with pytest.raises(ValueError):
            Command(device_id=1, value="ON", is_read=True)
        read = Command(device_id=1, is_read=True)
        assert read.is_write is False

    def test_long_command_threshold(self):
        assert Command(device_id=1, value="ON",
                       duration=LONG_COMMAND_THRESHOLD_S).is_long
        assert not Command(device_id=1, value="ON", duration=1.0).is_long

    def test_describe(self):
        text = Command(device_id=1, value="ON", duration=2.0,
                       must=False).describe()
        assert "best-effort" in text and "dev1" in text


class TestRoutine:
    def test_requires_commands(self):
        with pytest.raises(RoutineSpecError):
            Routine(name="empty", commands=[])

    def test_device_ids_first_touch_order(self):
        r = sequential("r", [(3, "ON", 1), (1, "ON", 1), (2, "OFF", 1)])
        assert r.device_ids == [3, 1, 2]

    def test_non_contiguous_device_rejected(self):
        with pytest.raises(RoutineSpecError):
            sequential("bad", [(3, "ON", 1), (1, "ON", 1), (3, "OFF", 1)])

    def test_contiguous_repeat_allowed(self):
        r = sequential("ok", [(0, "ON", 4), (0, "OFF", 1), (1, "ON", 5)])
        assert r.device_ids == [0, 1]

    def test_conflicts(self):
        a = sequential("a", [(0, "ON", 1)])
        b = sequential("b", [(0, "OFF", 1), (1, "ON", 1)])
        c = sequential("c", [(2, "ON", 1)])
        assert a.conflicts_with(b)
        assert not a.conflicts_with(c)

    def test_total_duration_and_long(self):
        r = sequential("r", [(0, "ON", 10), (1, "ON", 100)])
        assert r.total_duration == 110
        assert r.is_long

    def test_command_offsets(self):
        r = sequential("r", [(0, "ON", 4), (1, "ON", 5), (2, "ON", 1)])
        assert r.command_offsets() == [0.0, 4.0, 9.0]

    def test_lock_requests_merge_contiguous(self):
        r = sequential("breakfast", [
            (0, "ON", 240), (0, "OFF", 2), (1, "ON", 300), (1, "OFF", 2)])
        requests = r.lock_requests()
        assert len(requests) == 2
        coffee, pancake = requests
        assert coffee.device_id == 0
        assert coffee.offset == 0.0
        assert coffee.duration == pytest.approx(242.0)
        assert pancake.offset == pytest.approx(242.0)
        assert pancake.duration == pytest.approx(302.0)
        assert coffee.command_indexes == (0, 1)

    def test_lock_requests_back_to_back(self):
        r = sequential("r", [(0, "ON", 5), (1, "ON", 7), (2, "ON", 3)])
        requests = r.lock_requests()
        for prev, nxt in zip(requests, requests[1:]):
            assert nxt.offset == pytest.approx(prev.offset + prev.duration)

    def test_final_write_values(self):
        r = sequential("r", [(0, "ON", 4), (0, "OFF", 1), (1, "ON", 1)])
        assert [(q.device_id, q.final_value) for q in r.lock_requests()] \
            == [(0, "OFF"), (1, "ON")]

    def test_read_commands_not_in_final_writes(self):
        r = Routine(name="r", commands=[
            Command(device_id=0, is_read=True),
            Command(device_id=1, value="ON"),
        ])
        request, write = r.lock_requests()
        assert request.reads and not request.writes
        assert request.final_value is UNSET
        assert (write.device_id, write.final_value) == (1, "ON")

    def test_sequential_with_must_flag(self):
        r = sequential("r", [(0, "ON", 1, False), (1, "ON", 1)])
        assert [c.must for c in r.commands] == [False, True]
