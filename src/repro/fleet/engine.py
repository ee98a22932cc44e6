"""The fleet engine: N independent homes across a persistent worker pool.

A fleet runs on one of the three pools in :data:`repro.fleet.pool.POOLS`:

* ``serial``  — run every chunk inline (the reference backend);
* ``thread``  — persistent thread workers (GIL-bound; correctness);
* ``process`` — persistent process workers for multi-core throughput,
  with the shared config broadcast once per worker and homes shipped as
  compact ``(home_id, scenario, seed)`` tuples.

All pools receive the same chunk plan and return per-home rows that are
re-sorted by home id before aggregation, so the choice of backend,
worker count or chunk size never changes the default output bytes.
Streaming aggregation (``aggregate="stream"``) pre-reduces chunks in
the workers and merges O(workers) partials in the parent — histogram
percentiles within one bin of the exact pooled values; the default
``"exact"`` mode preserves the byte-identical pooled-percentile path.
Partials always travel pickled through the pool's result channel.
"""

import json
import os
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.fleet.pool import (AGGREGATE_MODES, POOLS, WorkerContext,
                              default_chunk_size, plan_chunks)
from repro.fleet.spool import merge_spool, refuse_leftover_workers
from repro.fleet.seeding import SeedSplitter
from repro.fleet.sharding import (DEFAULT_CHECK_FINAL, DEFAULT_CRASHES,
                                  DEFAULT_EXECUTION,
                                  DEFAULT_EXHAUSTIVE_LIMIT,
                                  DEFAULT_MAX_EVENTS, DEFAULT_MODEL,
                                  DEFAULT_RECOVERY, DEFAULT_SCHEDULER,
                                  HomeSpec)
from repro.metrics.fleet import aggregate_homes, merge_accumulators
from repro.workloads.fleet_mix import DEFAULT_MIX, scenario_for_home

Rows = List[Dict[str, Any]]


def available_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the
    platform has one (a cpuset-limited container sees its share, not
    the host's), else the host count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class FleetConfig:
    """Everything that defines a fleet run (and nothing else does)."""

    homes: int
    seed: int = 0
    scenario: str = "mix"           # "mix" cycles `mix`; else one name
    mix: Tuple[str, ...] = DEFAULT_MIX
    model: str = DEFAULT_MODEL
    scheduler: str = DEFAULT_SCHEDULER
    execution: str = DEFAULT_EXECUTION
    backend: str = "serial"
    workers: int = 0                # 0 = one per CPU (capped at homes)
    # Homes per dispatch chunk; 0 = ceil(homes / workers), the
    # IPC-amortizing default.  Smaller chunks stream better.
    chunk: int = 0
    # "exact" pools raw latency samples in the parent (byte-identical
    # default); "stream" merges per-chunk FleetAccumulator partials.
    aggregate: str = "exact"
    check_final: bool = DEFAULT_CHECK_FINAL
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
    max_events: int = DEFAULT_MAX_EVENTS
    # Hub-crash chaos schedule, applied per home (see HomeSpec).
    crashes: int = DEFAULT_CRASHES
    recovery: str = DEFAULT_RECOVERY
    # Constant: partials travel pickled through the pool's result
    # channel.  Kept as a field only because the frozen perf ledger
    # passes it; validated in __post_init__ and read by nothing else.
    transport: str = "pickle"
    # Directory for worker-spooled WALs ("" disables; forces durable
    # homes and produces fleet-wal.segs + index after the run).
    wal_dir: str = ""
    # Directory for per-worker cProfile dumps ("" disables; used by
    # scripts/profile_fleet.py for the process backend).
    profile_dir: str = ""

    def __post_init__(self) -> None:
        if self.transport != "pickle":
            raise ValueError(
                f"transport={self.transport!r} is not supported: the shm "
                f"transport was removed, partials always travel pickled "
                f"(drop the option)")

    def effective_workers(self) -> int:
        workers = self.workers or available_cpus()
        return max(1, min(workers, self.homes))

    def effective_chunk(self) -> int:
        if self.chunk:
            return max(1, min(self.chunk, self.homes))
        return default_chunk_size(self.homes, self.effective_workers())

    # -- plan round-trip (repro-fleet-plan/1, docs/control-plane.md) --------

    @classmethod
    def from_plan(cls, fleet: Mapping[str, Any],
                  **overrides: Any) -> "FleetConfig":
        """Build a config from a plan's ``fleet`` section.

        Keyword ``overrides`` are layered on top (the CLI's
        flags-beat-plan rule).  Unknown keys raise
        :class:`~repro.errors.PlanError`; ``homes`` defaults to 10 when
        neither source names it.  ``mix`` accepts a JSON list.
        """
        from repro.errors import PlanError

        valid = {f.name for f in fields(cls)}
        merged: Dict[str, Any] = dict(fleet)
        merged.update(overrides)
        unknown = set(merged) - valid
        if unknown:
            raise PlanError(
                f"unknown fleet config keys {sorted(unknown)}; "
                f"valid keys: {sorted(valid)}")
        if "mix" in merged:
            mix = merged["mix"]
            if not isinstance(mix, (list, tuple)) or \
                    not all(isinstance(name, str) for name in mix):
                raise PlanError("'mix' must be a list of scenario names")
            merged["mix"] = tuple(mix)
        merged.setdefault("homes", 10)
        try:
            config = cls(**merged)
        except (TypeError, ValueError) as exc:
            raise PlanError(f"bad fleet config: {exc}") from None
        # Schema validation: every enumerable field must hold a known
        # value *now*, not fail deep inside a worker pool later.
        from repro.core.visibility import VisibilityModel
        from repro.hub.durability.recovery import RECOVERY_MODES

        for key, value, allowed in (
                ("backend", config.backend, sorted(POOLS)),
                ("aggregate", config.aggregate, sorted(AGGREGATE_MODES)),
                ("recovery", config.recovery, sorted(RECOVERY_MODES))):
            if value not in allowed:
                raise PlanError(f"bad fleet config: {key}={value!r} "
                                f"(pick from {allowed})")
        try:
            VisibilityModel.parse(config.model)
        except ValueError as exc:
            raise PlanError(f"bad fleet config: {exc}") from None
        return config

    def to_plan(self) -> Dict[str, Any]:
        """This config as a plan ``fleet`` section (JSON-ready).

        The exact inverse of :meth:`from_plan`:
        ``FleetConfig.from_plan(config.to_plan()) == config``.
        """
        payload = asdict(self)
        payload["mix"] = list(self.mix)
        return payload


@dataclass
class FleetResult:
    """Per-home rows plus the batched cross-home aggregate."""

    config: FleetConfig
    rows: Rows                      # sorted by home_id
    aggregate: Dict[str, Any]
    elapsed_s: float = 0.0          # wall-clock; excluded from to_json

    @property
    def homes_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return len(self.rows) / self.elapsed_s

    def to_json(self, per_home: bool = False, indent: int = 2) -> str:
        """Deterministic JSON: same config ⇒ byte-identical output.

        Wall-clock timing and raw latency samples are deliberately
        excluded; ``per_home`` adds the per-home summary rows.
        """
        payload: Dict[str, Any] = {
            "fleet": {
                "homes": self.config.homes,
                "seed": self.config.seed,
                "scenario": self.config.scenario,
                "mix": list(self.config.mix)
                       if self.config.scenario == "mix" else None,
                "model": self.config.model,
                "scheduler": self.config.scheduler,
            },
            "aggregate": self.aggregate,
        }
        if self.config.execution != DEFAULT_EXECUTION:
            # Included only when non-default so default fleet reports
            # stay byte-identical to pre-execution-core output.
            payload["fleet"]["execution"] = self.config.execution
        if self.config.crashes != DEFAULT_CRASHES:
            # Same rule for the hub-crash chaos schedule.
            payload["fleet"]["crashes"] = self.config.crashes
            payload["fleet"]["recovery"] = self.config.recovery
        if self.config.aggregate != "exact":
            # Streaming percentiles are histogram-resolution and the
            # float means fold in chunk order, so the layout knobs are
            # part of the reproducibility recipe.
            payload["fleet"]["aggregate"] = self.config.aggregate
            payload["fleet"]["chunk"] = self.config.effective_chunk()
        if per_home:
            payload["homes"] = [
                {key: value for key, value in row.items()
                 if key != "latencies"}
                for row in self.rows]
        return json.dumps(payload, sort_keys=True, indent=indent)


class FleetEngine:
    """Chunks N homes over a persistent worker pool and aggregates."""

    def __init__(self, config: FleetConfig) -> None:
        if config.homes <= 0:
            raise ValueError(f"fleet needs >= 1 home, got {config.homes}")
        if config.backend not in POOLS:
            raise ValueError(
                f"unknown backend {config.backend!r}; pick from "
                f"{sorted(POOLS)}")
        if config.aggregate not in AGGREGATE_MODES:
            raise ValueError(
                f"unknown aggregate mode {config.aggregate!r}; "
                f"pick from {AGGREGATE_MODES}")
        # Fail fast on bad scenario/mix names before spinning up a pool.
        scenario_for_home(0, config.scenario, config.mix)
        self.config = config
        self.splitter = SeedSplitter(master_seed=config.seed)

    def context(self) -> WorkerContext:
        """The per-run shared config broadcast once to every worker."""
        config = self.config
        return WorkerContext(
            model=config.model, scheduler=config.scheduler,
            execution=config.execution, check_final=config.check_final,
            exhaustive_limit=config.exhaustive_limit,
            max_events=config.max_events, crashes=config.crashes,
            recovery=config.recovery, aggregate=config.aggregate,
            wal_dir=config.wal_dir, profile_dir=config.profile_dir)

    def pool_workers(self, chunk_count: Optional[int] = None) -> int:
        """The worker count an actual pool spawn uses *right now*.

        Clamped to the chunk plan: never spin up more workers than
        there are chunks to feed them.  Spawners must call this per
        spawn rather than caching ``effective_workers()`` — a
        control-plane re-spawn over a subset of homes (supervised
        rollback) has fewer chunks, and a stale count would spawn
        idle workers.
        """
        if chunk_count is None:
            chunk_count = len(plan_chunks(self.tasks(),
                                          self.config.effective_chunk()))
        return max(1, min(self.config.effective_workers(), chunk_count))

    def tasks(self) -> List[Tuple[int, str, int]]:
        """Compact per-home dispatch tuples: pure function of config."""
        config = self.config
        for_home = self.splitter.for_home
        return [(home_id,
                 scenario_for_home(home_id, config.scenario, config.mix),
                 for_home(home_id))
                for home_id in range(config.homes)]

    def specs(self) -> List[HomeSpec]:
        """The per-home specs: pure function of the config."""
        config = self.config
        return [
            HomeSpec(
                home_id=home_id,
                scenario=scenario,
                seed=seed,
                model=config.model,
                scheduler=config.scheduler,
                execution=config.execution,
                check_final=config.check_final,
                exhaustive_limit=config.exhaustive_limit,
                max_events=config.max_events,
                crashes=config.crashes,
                recovery=config.recovery,
            )
            for home_id, scenario, seed in self.tasks()
        ]

    def run(self) -> FleetResult:
        """Simulate the whole fleet and return rows + aggregate."""
        import time

        config = self.config
        started = time.perf_counter()
        if config.wal_dir:
            os.makedirs(config.wal_dir, exist_ok=True)
            refuse_leftover_workers(config.wal_dir)
        chunks = plan_chunks(self.tasks(), config.effective_chunk())
        # Never spin up more workers than there are chunks to feed
        # them (e.g. --workers 8 over 3 homes): idle workers only cost
        # startup.
        pool = POOLS[config.backend](self.pool_workers(len(chunks)))
        results = pool.run(self.context(), chunks)
        rows = sorted((row for result in results for row in result.rows),
                      key=lambda row: row["home_id"])
        if len(rows) != config.homes:
            raise RuntimeError(
                f"backend {config.backend!r} returned {len(rows)} rows "
                f"for {config.homes} homes")
        if config.wal_dir:
            merge_spool(config.wal_dir, expected_homes=config.homes)
        elapsed = time.perf_counter() - started
        if config.aggregate == "stream":
            # Partials merge in chunk order — deterministic for a fixed
            # chunk layout regardless of completion order.
            aggregate = merge_accumulators(
                [result.partial for result in results]).aggregate()
        else:
            aggregate = aggregate_homes(rows)
        return FleetResult(config=config, rows=rows,
                           aggregate=aggregate, elapsed_s=elapsed)


def run_fleet(homes: int, seed: int = 0, **kwargs: Any) -> FleetResult:
    """One-call convenience wrapper: ``run_fleet(100, seed=42)``."""
    return FleetEngine(FleetConfig(homes=homes, seed=seed, **kwargs)).run()
