"""Persistent worker pools and chunked streaming fleet execution.

This module is the only way a fleet executes:

* a :class:`WorkerPool` keeps its workers alive across *chunks* — the
  unit of dispatch is a tuple of compact :data:`HomeTask` triples
  ``(home_id, scenario, seed)``, not a pickled dataclass graph;
* everything shared by every home (model, scheduler, execution
  strategy, crash schedule, aggregation mode) is broadcast **once** per
  worker as a :class:`WorkerContext` — for process pools via the
  executor initializer, so per-chunk IPC stays a few dozen bytes per
  home;
* each worker owns a :class:`~repro.fleet.worker.HomeFactory` that
  resets and re-seeds one ``SafeHome`` between homes instead of
  rebuilding the stack per home;
* in streaming-aggregation mode a worker folds its chunk into a
  :class:`~repro.metrics.fleet.FleetAccumulator` before replying, so
  the parent merges O(workers) partials instead of O(homes) raw
  latency lists.

Chunk sizing: the default (``chunk=0``) is ``ceil(homes / workers)`` —
one chunk per worker, amortizing IPC.
Smaller chunks (``--chunk`` on the CLI) trade IPC for work-stealing
balance: stragglers stop serializing the tail of the run.  Chunks are
contiguous home-id ranges, so the heterogeneous default mix (which
cycles scenario profiles by home id) stays balanced at any chunk size
of a few homes or more.
"""

import atexit
import threading
from concurrent import futures
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.fleet.sharding import (DEFAULT_CHECK_FINAL, DEFAULT_CRASHES,
                                  DEFAULT_EXECUTION,
                                  DEFAULT_EXHAUSTIVE_LIMIT,
                                  DEFAULT_MAX_EVENTS, DEFAULT_MODEL,
                                  DEFAULT_RECOVERY, DEFAULT_SCHEDULER)
from repro.metrics.fleet import (DEFAULT_LATENCY_RESOLUTION,
                                 FleetAccumulator, accumulate_rows,
                                 strip_latencies)

#: One home's worth of dispatch payload: ``(home_id, scenario, seed)``.
HomeTask = Tuple[int, str, int]

#: Aggregation modes (see repro.metrics.fleet).
AGGREGATE_MODES = ("exact", "stream")


@dataclass(frozen=True)
class WorkerContext:
    """Everything shared by every home of one fleet run.

    Broadcast once per worker (process pools ship it through the
    executor initializer); together with a :data:`HomeTask` it fully
    determines one home's simulation.
    """

    model: str = DEFAULT_MODEL
    scheduler: str = DEFAULT_SCHEDULER
    execution: str = DEFAULT_EXECUTION
    check_final: bool = DEFAULT_CHECK_FINAL
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
    max_events: int = DEFAULT_MAX_EVENTS
    crashes: int = DEFAULT_CRASHES
    recovery: str = DEFAULT_RECOVERY
    aggregate: str = "exact"
    resolution: float = DEFAULT_LATENCY_RESOLUTION
    #: Durable-fleet WAL spool directory ("" disables spooling).
    wal_dir: str = ""
    #: Per-worker cProfile dump directory ("" disables profiling).
    profile_dir: str = ""
    #: Control-plane program (a :class:`repro.fleet.control.program.
    #: ControlProgram`) routing directive-carrying homes through the
    #: supervised runner; ``None`` for plain fleet runs.  Typed loosely
    #: to keep this module import-cycle-free.
    control: Optional[Any] = None


@dataclass
class ChunkResult:
    """What a worker sends back for one chunk.

    ``rows`` are per-home summary rows (raw latency sample lists
    already stripped in streaming mode); ``partial`` is the chunk's
    pre-reduced accumulator (streaming mode only).
    """

    chunk_id: int
    rows: List[Dict[str, Any]]
    partial: Optional[FleetAccumulator] = None


def plan_chunks(tasks: List[HomeTask],
                chunk_size: int) -> List[Tuple[HomeTask, ...]]:
    """Slice ``tasks`` into contiguous chunks of ``chunk_size`` homes."""
    if chunk_size <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")
    return [tuple(tasks[start:start + chunk_size])
            for start in range(0, len(tasks), chunk_size)]


def default_chunk_size(homes: int, workers: int) -> int:
    """One chunk per worker (``ceil(homes / workers)``), the IPC-
    amortizing default."""
    return max(1, -(-homes // max(1, workers)))


def process_chunk(context: WorkerContext, chunk_id: int,
                  chunk: Tuple[HomeTask, ...], factory) -> ChunkResult:
    """Simulate one chunk on one worker (shared by every pool kind)."""
    rows = [factory.run_task(task) for task in chunk]
    if context.aggregate == "stream":
        partial = accumulate_rows(rows, context.resolution)
        return ChunkResult(chunk_id, strip_latencies(rows), partial)
    return ChunkResult(chunk_id, rows, None)


class WorkerPool:
    """A named pool strategy: run chunks, keep workers alive between
    them.  Subclasses implement :meth:`run`; results come back in
    chunk order regardless of completion order."""

    name = "abstract"

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)

    def run(self, context: WorkerContext,
            chunks: List[Tuple[HomeTask, ...]]) -> List[ChunkResult]:
        raise NotImplementedError


class SerialPool(WorkerPool):
    """Inline execution — the reference backend (and the fast path for
    small fleets: no pool, no pickling, one reused home)."""

    name = "serial"

    def run(self, context: WorkerContext,
            chunks: List[Tuple[HomeTask, ...]]) -> List[ChunkResult]:
        from repro.fleet.worker import HomeFactory

        factory = HomeFactory(context)
        return [process_chunk(context, chunk_id, chunk, factory)
                for chunk_id, chunk in enumerate(chunks)]


class ThreadPool(WorkerPool):
    """Thread workers with one :class:`HomeFactory` per thread.

    Simulations are pure Python, so the GIL serializes compute — this
    is primarily a correctness backend that shakes out shared-state
    bugs; homes never share a factory across threads.
    """

    name = "thread"

    def run(self, context: WorkerContext,
            chunks: List[Tuple[HomeTask, ...]]) -> List[ChunkResult]:
        from repro.fleet.worker import HomeFactory

        local = threading.local()

        def work(item: Tuple[int, Tuple[HomeTask, ...]]) -> ChunkResult:
            factory = getattr(local, "factory", None)
            if factory is None:
                factory = local.factory = HomeFactory(context)
            return process_chunk(context, item[0], item[1], factory)

        with futures.ThreadPoolExecutor(
                max_workers=self.workers) as pool:
            return list(pool.map(work, enumerate(chunks)))


class ProcessPool(WorkerPool):
    """Process workers for real multi-core throughput.

    The context is broadcast once per worker via the executor
    initializer; each worker process keeps its factory (and therefore
    its reused ``SafeHome``) alive for every chunk it consumes.
    """

    name = "process"

    def run(self, context: WorkerContext,
            chunks: List[Tuple[HomeTask, ...]]) -> List[ChunkResult]:
        with futures.ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_process_worker_init,
                initargs=(context,)) as pool:
            return list(pool.map(_process_worker_chunk,
                                 enumerate(chunks)))


# -- process-worker plumbing (module-level: must pickle by name) -------------

_PROCESS_STATE: Dict[str, Any] = {}


def _process_worker_init(context: WorkerContext) -> None:
    from repro.fleet.worker import HomeFactory

    _PROCESS_STATE["context"] = context
    _PROCESS_STATE["factory"] = HomeFactory(context)
    if context.profile_dir:
        _start_worker_profile(context.profile_dir)


def _at_worker_exit(callback) -> None:
    """Run ``callback`` when this worker process exits.

    Forked multiprocessing children leave via ``os._exit``, which skips
    the regular ``atexit`` machinery — ``multiprocessing.util``'s
    finalizer registry is the hook that actually fires there.  Plain
    ``atexit`` is the fallback for exotic pools that reuse this
    initializer in-process.
    """
    try:
        from multiprocessing.util import Finalize

        Finalize(None, callback, exitpriority=10)
    except Exception:  # pragma: no cover - stdlib-internal API moved
        atexit.register(callback)


def _start_worker_profile(profile_dir: str) -> None:
    """Profile this worker's whole life; dump pstats at worker exit so
    the parent can merge the per-worker files into one view."""
    import cProfile
    import os

    profile = cProfile.Profile()
    profile.enable()

    def _dump() -> None:
        profile.disable()
        profile.dump_stats(os.path.join(profile_dir,
                                        f"worker-{os.getpid()}.pstats"))

    _at_worker_exit(_dump)


def _process_worker_chunk(
        item: Tuple[int, Tuple[HomeTask, ...]]) -> ChunkResult:
    return process_chunk(_PROCESS_STATE["context"], item[0], item[1],
                         _PROCESS_STATE["factory"])


#: The three pools a fleet can run on: name → WorkerPool subclass.
POOLS: Dict[str, type] = {
    SerialPool.name: SerialPool,
    ThreadPool.name: ThreadPool,
    ProcessPool.name: ProcessPool,
}

