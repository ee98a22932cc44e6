"""Just-in-Time scheduling (§5).

A new routine waits in the queue until a greedy *eligibility test* says
it can acquire **all** of its locks right now — free locks, post-leases
(after a released prefix) or pre-leases (before purely SCHEDULED
accesses).  The test runs on every arrival and every lock release.  A
per-routine TTL prevents starvation: once a waiting routine's TTL
expires, no younger routine may be scheduled ahead of it.
"""

from typing import List, Optional

from repro.core.controller import RoutineRun
from repro.core.ev import Placement
from repro.core.lineage import LockStatus
from repro.core.schedulers.base import Scheduler


class JiTScheduler(Scheduler):
    """Eligibility-test scheduling with TTL anti-starvation."""

    name = "jit"

    def __init__(self, controller) -> None:
        super().__init__(controller)
        self.queue: List[RoutineRun] = []

    def on_arrive(self, run: RoutineRun) -> None:
        self.queue.append(run)
        self._try_schedule()

    def on_release(self, device_id: int) -> None:
        self._try_schedule()

    def on_finish(self, run: RoutineRun) -> None:
        if run in self.queue:
            self.queue.remove(run)
        self._try_schedule()

    # -- eligibility (the greedy test) ------------------------------------------------

    def _try_schedule(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for run in self._candidates():
                placements = self._eligible(run)
                if placements is None:
                    continue
                self.queue.remove(run)
                self.controller.place_run(run, placements)
                progressed = True
                break  # placements changed the table; re-derive candidates

    def _candidates(self) -> List[RoutineRun]:
        """Queue order, restricted to expired-TTL routines if any exist."""
        now = self.controller.sim.now
        ttl = self.controller.config.jit_ttl_s
        live = [run for run in self.queue if not run.done]
        expired = [run for run in live if now - run.submit_time >= ttl]
        return expired if expired else live

    def _eligible(self, run: RoutineRun) -> Optional[List[Placement]]:
        """Placement if every lock is acquirable now, else ``None``."""
        controller = self.controller
        config = controller.config
        pre = post = 0
        placements: List[Placement] = []
        now = controller.sim.now
        chain = self.chains_devices()
        earliest = now
        for request in run.routine.lock_requests():
            lineage = controller.table.lineage(request.device_id)
            entries = lineage.entries
            released_prefix = 0
            for entry in entries:
                if entry.status is LockStatus.RELEASED:
                    released_prefix += 1
                else:
                    break
            if released_prefix < len(entries):
                blocker = entries[released_prefix]
                if blocker.status is not LockStatus.SCHEDULED:
                    return None  # the device is actively in use
                if not config.pre_lease:
                    return None  # would need a pre-lease
            if released_prefix and not config.post_lease:
                # A released-but-unfinished owner ahead of us means we
                # would be borrowing via post-lease.
                unfinished = any(
                    not controller.is_finished(e.routine_id)
                    for e in entries[:released_prefix])
                if unfinished:
                    return None
            index = released_prefix
            gap_pre, gap_post = controller.before_after_for_gap(
                request.device_id, index)
            pre |= gap_pre
            post |= gap_post
            if pre & post:
                return None  # would contradict the serialization order
            duration = controller.estimate_duration(run, request)
            placements.append(
                Placement(request, index, earliest, duration))
            if chain:
                earliest += duration
        return placements
