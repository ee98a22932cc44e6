"""Timeline (TL) scheduling — Algorithm 1 (§5).

TL speculatively places a new routine's lock-accesses into *gaps* of the
projected per-device timelines, using duration estimates.  For each
access it tries gaps left to right; a gap is valid when the transitive
preSet/postSet of the implied serialization position are disjoint
(no contradiction with previously decided orders).  On failure it
backtracks and tries the next gap.  The all-tails placement always
succeeds, so the search terminates.

A stretch-admission check (Fig 9c) rejects placements that would
stretch the new routine beyond ``config.stretch_threshold`` × its ideal
runtime when the plain tail placement would stretch it less.
"""

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.core.controller import RoutineRun
from repro.core.ev import Placement
from repro.core.lineage import Gap
from repro.core.schedulers.base import Scheduler

# Cap on gaps tried per lock-access; keeps worst-case search polynomial
# while far exceeding realistic lineage sizes.
MAX_GAPS_PER_ACCESS = 32


class TimelineScheduler(Scheduler):
    """Backtracking gap placement with estimate-driven timelines."""

    name = "timeline"

    def on_arrive(self, run: RoutineRun) -> None:
        self.controller.place_run(run, self._place(run))

    # -- Algorithm 1 -----------------------------------------------------------------

    def _place(self, run: RoutineRun) -> List[Placement]:
        controller = self.controller
        now = controller.sim.now
        requests = run.routine.lock_requests()
        durations = [controller.estimate_duration(run, request)
                     for request in requests]

        # Fast path: when every requested device's lineage is empty (no
        # live entries, no retained tail) — ~80% of fleet-mix placements
        # — the search degenerates to the tail chain: each access lands
        # in its device's sole (index 0, now → ∞) gap with empty
        # preSet/postSet, which is exactly what the backtracking search
        # below computes gap-by-gap.  Skips the gap projection and the
        # recursion without changing one placement.
        table = controller.table
        frontier = table.order.frontier
        empty = True
        for request in requests:
            if table.lineage(request.device_id).entries or \
                    request.device_id in frontier:
                empty = False
                break
        if empty:
            chain = self.chains_devices()
            placements = []
            earliest = now
            for request, duration in zip(requests, durations):
                placements.append(Placement(request, 0, earliest,
                                            duration))
                if chain:
                    earliest += duration
            return self._admit(run, placements, durations)

        estimator = controller.routine_end_estimator()
        # Per device: the (truncated) gap list plus a bisect index over
        # the gap *end* times.  Gaps are disjoint and time-ordered, so
        # ends are increasing and every gap with ``end < earliest +
        # duration`` can be skipped wholesale — those are exactly the
        # gaps the old linear scan rejected one ``fits`` call at a time.
        gaps_by_device: Dict[int, Tuple[List[Gap], List[float]]] = {}
        for request in requests:
            gaps = table.lineage(request.device_id).gaps(now, estimator)
            if not controller.config.pre_lease:
                gaps = gaps[-1:]  # tail only: no placement before others
            gaps = gaps[:MAX_GAPS_PER_ACCESS]
            gaps_by_device[request.device_id] = (
                gaps, [gap.end for gap in gaps])

        assignment: List[Optional[Placement]] = [None] * len(requests)
        chain = self.chains_devices()

        def schedule(index: int, earliest: float,
                     pre: int, post: int) -> bool:
            """Recursive backtracking placement (Algorithm 1)."""
            if index >= len(requests):
                return True
            request = requests[index]
            duration = durations[index]
            gaps, ends = gaps_by_device[request.device_id]
            for gap in gaps[bisect_left(ends, earliest + duration):]:
                if not gap.fits(earliest, duration):
                    continue
                start = gap.placement(earliest)
                gap_pre, gap_post = controller.before_after_for_gap(
                    request.device_id, gap.index)
                cur_pre = pre | gap_pre
                cur_post = post | gap_post
                if cur_pre & cur_post:
                    continue  # serialization violated: try next gap
                assignment[index] = Placement(request, gap.index,
                                              start, duration)
                if schedule(index + 1,
                            start + duration if chain else earliest,
                            cur_pre, cur_post):
                    return True
                assignment[index] = None
            return False

        if not schedule(0, now, 0, 0):
            # Unreachable in theory (tail gaps always compose), but fall
            # back gracefully rather than dying mid-simulation.
            return self.tail_placements(run)

        placements = [p for p in assignment if p is not None]
        return self._admit(run, placements, durations)

    # -- stretch admission --------------------------------------------------------------

    def _admit(self, run: RoutineRun, placements: List[Placement],
               durations: List[float]) -> List[Placement]:
        ideal = sum(durations)
        if ideal <= 0:
            return placements
        threshold = self.controller.config.stretch_threshold
        stretch = self._stretch_of(placements, ideal)
        if stretch <= threshold:
            return placements
        tail = self.tail_placements(run)
        if self._stretch_of(tail, ideal) < stretch:
            return tail
        return placements

    @staticmethod
    def _stretch_of(placements: List[Placement], ideal: float) -> float:
        start = placements[0].planned_start
        end = placements[-1].planned_start + placements[-1].duration
        return (end - start) / ideal
