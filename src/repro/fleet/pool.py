"""Persistent worker pools and chunked streaming fleet execution.

This module is the only way a fleet executes:

* a :class:`WorkerPool` keeps its workers alive across *chunks* — the
  unit of dispatch is a tuple of compact :data:`HomeTask` triples
  ``(home_id, scenario, seed)``, not a pickled dataclass graph;
* the fleet's config (and, under the control plane, its program) is
  broadcast **once** per worker as a :class:`WorkerContext` — for
  process pools via the executor initializer, so per-chunk IPC stays a
  few dozen bytes per home;
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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.metrics.fleet import (FleetAccumulator, accumulate_rows,
                                 strip_latencies)

if TYPE_CHECKING:  # the engine imports this module
    from repro.fleet.engine import FleetConfig

#: One home's worth of dispatch payload: ``(home_id, scenario, seed)``.
HomeTask = Tuple[int, str, int]

#: Aggregation modes (see repro.metrics.fleet).
AGGREGATE_MODES = ("exact", "stream")


@dataclass(frozen=True)
class WorkerContext:
    """Everything shared by every home of one fleet run.

    Broadcast once per worker (process pools ship it through the
    executor initializer); together with a :data:`HomeTask` it fully
    determines one home's simulation (``config.spec`` builds the
    recipe).
    """

    config: "FleetConfig"
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
    if context.config.aggregate == "stream":
        partial = accumulate_rows(rows)
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


class ProcessPool(WorkerPool):
    """Process workers for real multi-core throughput.

    The context is broadcast once per worker via the executor
    initializer; each worker process keeps its factory (and therefore
    its reused ``SafeHome``) alive for every chunk it consumes.
    """

    name = "process"

    def run(self, context: WorkerContext,
            chunks: List[Tuple[HomeTask, ...]]) -> List[ChunkResult]:
        from concurrent import futures  # only process-pool runs pay for it

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


def _process_worker_chunk(
        item: Tuple[int, Tuple[HomeTask, ...]]) -> ChunkResult:
    return process_chunk(_PROCESS_STATE["context"], item[0], item[1],
                         _PROCESS_STATE["factory"])


#: The two pools a fleet can run on: name → WorkerPool subclass.
POOLS: Dict[str, type] = {
    SerialPool.name: SerialPool,
    ProcessPool.name: ProcessPool,
}

