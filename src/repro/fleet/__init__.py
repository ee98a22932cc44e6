"""Fleet-scale multi-home engine.

The paper evaluates one SafeHome hub at a time; a production deployment
runs millions of independent hubs.  This package is the architectural
seam for that scale-out: it streams N
:class:`~repro.hub.safehome.SafeHome` simulations through a persistent
worker pool (serial / thread / process — :mod:`repro.fleet.pool`),
reuses one hub per worker via :class:`~repro.fleet.worker.HomeFactory`
resets, splits one master seed into per-home seeds deterministically
(:mod:`repro.fleet.seeding`), and aggregates cross-home metrics either
exactly or through mergeable per-chunk accumulators
(:mod:`repro.metrics.fleet`).

Quick start::

    from repro.fleet import FleetConfig, FleetEngine

    result = FleetEngine(FleetConfig(homes=100, seed=42)).run()
    print(result.to_json())

Determinism contract: a fleet run is a pure function of its
:class:`FleetConfig` — backend choice, worker count and chunk size
never change a single byte of the default (exact-aggregation) JSON.
"""

from repro.fleet.engine import (FleetConfig, FleetEngine, FleetResult,
                                run_fleet)
from repro.fleet.pool import (POOLS, HomeTask, WorkerContext, WorkerPool,
                              default_chunk_size, plan_chunks)
from repro.fleet.seeding import SeedSplitter, home_seed
from repro.fleet.sharding import HomeSpec
from repro.fleet.spool import (load_spooled_home, merge_spool,
                               replay_spooled_home)
from repro.fleet.worker import HomeFactory, run_home

# The control plane imports the engine, so it must come last here.
from repro.fleet.control import (CanarySpec, Cohort, ControlLoop,
                                 ControlProgram, ControlResult, FleetPlan,
                                 HomeDirective, MigrationStep, OpsLog,
                                 SupervisionPolicy, apply_plan,
                                 assign_cohorts, load_plan)

__all__ = [
    "FleetConfig",
    "FleetEngine",
    "FleetResult",
    "run_fleet",
    "POOLS",
    "WorkerPool",
    "WorkerContext",
    "HomeTask",
    "HomeFactory",
    "default_chunk_size",
    "plan_chunks",
    "SeedSplitter",
    "home_seed",
    "HomeSpec",
    "run_home",
    "merge_spool",
    "load_spooled_home",
    "replay_spooled_home",
    "FleetPlan",
    "Cohort",
    "MigrationStep",
    "CanarySpec",
    "SupervisionPolicy",
    "HomeDirective",
    "ControlProgram",
    "ControlLoop",
    "ControlResult",
    "OpsLog",
    "assign_cohorts",
    "load_plan",
    "apply_plan",
]
