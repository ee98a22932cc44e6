"""Hypothesis property tests on core data structures.

Complements test_properties.py (whole-system serializability) with
targeted invariants: lineage gap geometry, lock-request partitions,
statistics helpers, and cross-validation of the two serial-equivalence
checkers.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.command import Command
from repro.core.lineage import Lineage, LockAccess, LockStatus
from repro.core.routine import Routine
from repro.metrics.congruence import serial_end_state_exists
from repro.metrics.stats import (normalized_swap_distance, percentile,
                                 swap_distance)


@st.composite
def scheduled_lineage(draw):
    """A lineage of SCHEDULED entries with non-overlapping plans."""
    lineage = Lineage(0)
    cursor = draw(st.floats(0, 10))
    for rid in range(draw(st.integers(0, 6))):
        gap = draw(st.floats(0, 5))
        duration = draw(st.floats(0.1, 8))
        start = cursor + gap
        lineage.append(LockAccess(routine_id=rid, device_id=0,
                                  planned_start=start,
                                  duration=duration))
        cursor = start + duration
    return lineage


class TestLineageGapGeometry:
    @settings(max_examples=100, deadline=None)
    @given(lineage=scheduled_lineage(), now=st.floats(0, 20),
           earliest=st.floats(0, 30), duration=st.floats(0.1, 5))
    def test_gaps_disjoint_from_projections(self, lineage, now, earliest,
                                            duration):
        gaps = lineage.gaps(now)
        intervals = [(s, e) for (_a, s, e)
                     in lineage.projected_intervals(now)]
        # Tail gap always exists and is infinite.
        assert gaps[-1].end == math.inf
        for gap in gaps:
            assert gap.start >= now
            assert gap.start < gap.end
            for (start, end) in intervals:
                # No overlap between a gap and a projected busy span.
                assert gap.end <= start or gap.start >= end

        # Any placement that fits leaves invariant 1 intact.
        for gap in gaps:
            if not gap.fits(earliest, duration):
                continue
            placed = gap.placement(earliest)
            access = LockAccess(routine_id=99, device_id=0,
                                planned_start=placed, duration=duration)
            lineage.insert(gap.index, access)
            assert lineage.planned_overlaps() == []
            del lineage.entries[gap.index]

    @settings(max_examples=100, deadline=None)
    @given(lineage=scheduled_lineage(), now=st.floats(0, 20))
    def test_gap_indexes_monotone(self, lineage, now):
        gaps = lineage.gaps(now)
        indexes = [gap.index for gap in gaps]
        assert indexes == sorted(indexes)
        assert all(0 <= i <= len(lineage.entries) for i in indexes)


@st.composite
def contiguous_routine(draw):
    n_groups = draw(st.integers(1, 5))
    commands = []
    for device_id in range(n_groups):
        for _ in range(draw(st.integers(1, 3))):
            commands.append(Command(
                device_id=device_id,
                value=draw(st.sampled_from(["ON", "OFF"])),
                duration=draw(st.floats(0, 10))))
    return Routine(name="r", commands=commands)


class TestLockRequestPartition:
    @settings(max_examples=100, deadline=None)
    @given(routine=contiguous_routine())
    def test_requests_cover_all_commands_exactly_once(self, routine):
        requests = routine.lock_requests()
        covered = [index for request in requests
                   for index in request.command_indexes]
        assert sorted(covered) == list(range(len(routine.commands)))

    @settings(max_examples=100, deadline=None)
    @given(routine=contiguous_routine())
    def test_requests_back_to_back_and_total_duration(self, routine):
        requests = routine.lock_requests()
        for prev, nxt in zip(requests, requests[1:]):
            assert nxt.offset >= prev.offset + prev.duration - 1e-9
        total = sum(request.duration for request in requests)
        assert total <= routine.total_duration + 1e-9


class TestStatsProperties:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1,
                           max_size=50),
           q1=st.floats(0, 100), q2=st.floats(0, 100))
    def test_percentile_monotone_and_bounded(self, values, q1, q2):
        low, high = sorted([q1, q2])
        assert percentile(values, low) <= percentile(values, high) + 1e-9
        assert min(values) <= percentile(values, q1) <= max(values)

    @settings(max_examples=100, deadline=None)
    @given(order=st.permutations(list(range(6))))
    def test_swap_distance_metric_properties(self, order):
        reference = list(range(6))
        distance = swap_distance(order, reference)
        assert distance == swap_distance(reference, order)
        assert distance == 0 or order != reference
        assert 0 <= normalized_swap_distance(order, reference) <= 1

    @settings(max_examples=50, deadline=None)
    @given(order=st.permutations(list(range(5))))
    def test_swap_distance_identity(self, order):
        assert swap_distance(order, order) == 0


@st.composite
def writes_and_observation(draw):
    n_routines = draw(st.integers(1, 5))
    n_devices = draw(st.integers(1, 3))
    writes = {}
    for rid in range(n_routines):
        devices = draw(st.lists(st.integers(0, n_devices - 1),
                                min_size=1, max_size=n_devices,
                                unique=True))
        writes[rid] = {d: draw(st.sampled_from("ABC")) for d in devices}
    initial = {d: "I" for d in range(n_devices)}
    observed = {d: draw(st.sampled_from(["A", "B", "C", "I"]))
                for d in range(n_devices)}
    return writes, initial, observed


class TestCheckerCrossValidation:
    @settings(max_examples=150, deadline=None)
    @given(data=writes_and_observation())
    def test_brute_force_equals_last_writer_search(self, data):
        writes, initial, observed = data
        brute = serial_end_state_exists(observed, writes, initial,
                                        exhaustive_limit=5)
        clever = serial_end_state_exists(observed, writes, initial,
                                         exhaustive_limit=0)
        assert brute == clever
