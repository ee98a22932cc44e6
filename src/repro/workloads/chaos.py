"""Hub-crash chaos workload.

Device failures have been injectable since the seed; this workload adds
the missing scenario class: the *hub itself* dies mid-run.  A seeded
evening-scene workload (overlapping routines, a flaky light) runs on a
durable :class:`~repro.hub.safehome.SafeHome`, crashes at seeded points
— under serial or parallel execution — recovers from checkpoint + WAL,
and compares the final congruence report against an uninterrupted run
of the same seed.

Under ``"replay"`` recovery the comparison must be byte-identical (the
property the test suite pins for every model at every crash index);
under ``"policy"`` recovery the divergence *is* the measurement — how
much work each visibility model loses to a hub outage.
"""

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

from repro.core.spec import parse_routine
from repro.devices.failures import FailurePlan
from repro.devices.registry import DeviceRegistry
from repro.metrics.recovery import recovery_summary
from repro.sim.random import RandomStreams
from repro.workloads.base import Workload

_DEVICES = [
    ("light", "hall-light"),
    ("light", "porch-light"),
    ("light", "bed-light"),
    ("window", "living-window"),
    ("ac", "living-ac"),
    ("door_lock", "front-door"),
    ("coffee_maker", "kitchen-coffee"),
]

_ROUTINES = [
    {"routineName": "evening-lights", "commands": [
        {"device": "hall-light", "action": "ON", "durationSec": 1},
        {"device": "porch-light", "action": "ON", "durationSec": 1,
         "priority": "BEST_EFFORT"},
        {"device": "bed-light", "action": "ON", "durationSec": 1}]},
    {"routineName": "cooling", "commands": [
        {"device": "living-window", "action": "CLOSED", "durationSec": 2},
        {"device": "living-ac", "action": "ON", "durationSec": 3}]},
    {"routineName": "lockup", "commands": [
        {"device": "front-door", "action": "LOCKED", "durationSec": 1},
        {"device": "hall-light", "action": "OFF", "durationSec": 1},
        {"device": "porch-light", "action": "OFF", "durationSec": 1,
         "priority": "BEST_EFFORT"}]},
    {"routineName": "brew", "commands": [
        {"device": "kitchen-coffee", "action": "ON", "durationSec": 4},
        {"device": "kitchen-coffee", "action": "OFF", "durationSec": 1}]},
    {"routineName": "night-air", "commands": [
        {"device": "living-ac", "action": "OFF", "durationSec": 1},
        {"device": "living-window", "action": "OPEN", "durationSec": 2}]},
]


def chaos_workload(seed: int = 0) -> Workload:
    """The seeded evening scene the hub-crash chaos runs execute."""
    registry = DeviceRegistry()
    for type_name, name in _DEVICES:
        registry.create(type_name, name)
    rng = RandomStreams(seed=seed).stream("chaos-arrivals")
    arrivals = [(parse_routine(spec, registry),
                 round(rng.uniform(0.0, 6.0), 3))
                for spec in _ROUTINES]
    flaky = registry.by_name("porch-light")
    fail_at = round(rng.uniform(0.5, 4.0), 3)
    failures = [FailurePlan(flaky.device_id, fail_at,
                            restart_at=fail_at + 2.5)]
    return Workload(name="chaos", devices=list(_DEVICES),
                    arrivals=arrivals, failure_plans=failures,
                    horizon_hint=15.0, meta={"seed": seed})


@dataclass
class ChaosResult:
    """One chaos run: crash points, recoveries, congruence verdict."""

    model: str
    execution: str
    recovery_mode: str
    seed: int
    crash_events: List[int]
    baseline_events: int
    baseline_row: Dict[str, Any]
    recovered_row: Dict[str, Any]
    congruent: bool
    recoveries: List[Dict[str, Any]] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        """Deterministic summary."""
        return {
            "model": self.model,
            "execution": self.execution,
            "recovery": self.recovery_mode,
            "seed": self.seed,
            "crashes": self.crash_events,
            "baseline_events": self.baseline_events,
            "congruent": self.congruent,
            "recoveries": recovery_summary(self.recoveries),
            "report": self.recovered_row,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.summary(), indent=indent, sort_keys=True)


def chaos_home(model: str = "ev", execution: str = "serial", seed: int = 0,
               checkpoint_every: int = 32, scenario: Optional[str] = None,
               wal_dir: Optional[str] = None):
    """The durable chaos home, loaded and not yet run: what ``repro
    crash-recovery``, the fsck corruption grid and the recovery bench
    crash, damage or time.  ``scenario`` swaps the evening scene for a
    ``synth:...`` name, e.g. a worst-found ``repro hunt`` corpus entry.
    """
    # Imported lazily: the hub package sits above workloads in the
    # dependency graph (SafeHome itself imports workloads.base).
    from repro.hub.durability import DurabilityConfig
    from repro.hub.safehome import SafeHome

    if scenario is None:
        workload = chaos_workload(seed)
    else:
        from repro.workloads.synth import SynthSpec, compile_spec

        workload = compile_spec(SynthSpec.decode(scenario), seed=seed)
    home = SafeHome(
        visibility=model, execution=execution, seed=seed,
        durability=DurabilityConfig(checkpoint_every=checkpoint_every),
        wal_dir=wal_dir)
    home.load_workload(workload)
    return home


def _report_row(home, model: str) -> Dict[str, Any]:
    # WV executions may be cyclic by design (no isolation), so the
    # serial-order reconstruction behind the final-congruence check is
    # only asked of the serializable models.
    report = home.report(check_final=model != "wv")
    row = dict(report.row())
    row["serial_order"] = list(report.serial_order)
    return row


def run_chaos(model: str = "ev", execution: str = "serial", seed: int = 0,
              crashes: int = 2, recovery: str = "replay",
              checkpoint_every: int = 32, crash_at: Optional[float] = None,
              crash_event: Optional[int] = None,
              scenario: Optional[str] = None,
              wal_dir: Optional[str] = None) -> ChaosResult:
    """Crash the hub at seeded points, recover, compare to baseline.

    ``crash_at`` / ``crash_event`` pin a single explicit crash point;
    otherwise ``crashes`` points are drawn (``CrashPlan.seeded``) from
    the uninterrupted run's event range.  ``scenario`` is
    :func:`chaos_home`'s.  ``wal_dir`` puts the crashing home's WAL on
    disk (sealed on completion), an fsck-able artifact.
    """
    from repro.hub.durability import CrashPlan, run_crashing

    # An explicit point is checked (by CrashPlan) before anything runs.
    plans = None if crash_at is None and crash_event is None else \
        [CrashPlan(at=crash_at, after_events=crash_event)]
    baseline = chaos_home(model, execution, seed, checkpoint_every, scenario)
    baseline.run()
    baseline_row = _report_row(baseline, model)
    total_events = baseline.sim.events_processed
    if plans is None:
        plans = CrashPlan.seeded(seed, crashes, events=total_events)

    home = chaos_home(model, execution, seed, checkpoint_every, scenario,
                      wal_dir)
    reports = run_crashing(home, plans, partial(home.recover, recovery))
    home.run()
    if wal_dir is not None:
        home.close_wal()
    recovered_row = _report_row(home, model)

    congruent = json.dumps(recovered_row, sort_keys=True, default=repr) \
        == json.dumps(baseline_row, sort_keys=True, default=repr)
    return ChaosResult(
        model=model, execution=execution, recovery_mode=recovery,
        seed=seed, crash_events=[r.crash_events for r in reports],
        baseline_events=total_events, baseline_row=baseline_row,
        recovered_row=recovered_row, congruent=congruent,
        recoveries=[r.row() for r in reports])
