"""The versioned fleet plan: ``repro-fleet-plan/1``.

A :class:`FleetPlan` is the *only* way to drive control-plane
operations (docs/control-plane.md pins the schema).  It is a plain
JSON document::

    {
      "version": "repro-fleet-plan/1",
      "fleet":   { "homes": 100, "seed": 42, "model": "wv", ... },
      "cohorts": [
        { "name": "migrate", "fraction": 0.2,
          "overrides": { "crashes": 2 } },
        { "name": "canary", "fraction": 0.1,
          "overrides": { "scheduler": "fcfs" } }
      ],
      "migrations": [
        { "cohort": "migrate", "to_model": "ev", "at_s": 120.0 }
      ],
      "canary": { "cohort": "canary", "baseline": "stable",
                  "max_abort_rate_delta": 0.1, "rollback": true },
      "supervision": { "max_restarts": 3, "backoff_base_s": 0.5 }
    }

``fleet`` holds :class:`~repro.fleet.engine.FleetConfig` fields (the
``FleetConfig.from_plan`` round-trip).  Cohort membership is *seeded*:
:func:`assign_cohorts` samples disjoint home-id subsets with
seeds derived from the fleet seed, so the same plan always names the
same homes.  Homes left over belong to the implicit ``"stable"``
cohort.  Every structural violation raises
:class:`~repro.errors.PlanError` — plans fail loudly at load, never
mid-run.
"""

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.visibility import VisibilityModel
from repro.errors import PlanError
from repro.fleet.control.program import SupervisionPolicy
from repro.fleet.sharding import check_settings
from repro.sim.random import derive_seed

#: The schema version this module reads and writes.
PLAN_VERSION = "repro-fleet-plan/1"

#: The reserved name of the implicit remainder cohort.
STABLE_COHORT = "stable"

#: Per-home settings a cohort may override.
COHORT_OVERRIDE_KEYS = ("model", "scheduler", "execution", "crashes",
                        "recovery")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PlanError(message)


@dataclass(frozen=True)
class Cohort:
    """A named, seeded subset of the fleet with config overrides."""

    name: str
    fraction: float
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def override_map(self) -> Dict[str, Any]:
        return dict(self.overrides)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Cohort":
        _require(isinstance(data.get("name"), str) and data["name"],
                 "cohort needs a non-empty string 'name'")
        overrides = data.get("overrides", {})
        _require(isinstance(overrides, Mapping),
                 f"cohort {data['name']!r}: 'overrides' must be an object")
        for key in overrides:
            _require(key in COHORT_OVERRIDE_KEYS,
                     f"cohort {data['name']!r}: unknown override {key!r}; "
                     f"pick from {COHORT_OVERRIDE_KEYS}")
        fraction = data.get("fraction")
        _require(isinstance(fraction, (int, float))
                 and not isinstance(fraction, bool)
                 and 0.0 < float(fraction) <= 1.0,
                 f"cohort {data['name']!r}: 'fraction' must be in (0, 1]")
        return cls(name=data["name"], fraction=float(fraction),
                   overrides=tuple(sorted(overrides.items())))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "fraction": self.fraction,
                "overrides": self.override_map()}


@dataclass(frozen=True)
class MigrationStep:
    """Flip one cohort's visibility model at a virtual time."""

    cohort: str
    to_model: str
    at_s: float

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MigrationStep":
        _require(isinstance(data.get("cohort"), str) and data["cohort"],
                 "migration step needs a 'cohort' name")
        try:
            to_model = VisibilityModel.parse(data.get("to_model", "")).value
        except (ValueError, AttributeError):
            raise PlanError(
                f"migration step for cohort {data['cohort']!r}: bad "
                f"'to_model' {data.get('to_model')!r}") from None
        at_s = data.get("at_s")
        _require(isinstance(at_s, (int, float))
                 and not isinstance(at_s, bool) and float(at_s) >= 0.0,
                 f"migration step for cohort {data['cohort']!r}: "
                 f"'at_s' must be a non-negative number")
        return cls(cohort=data["cohort"], to_model=to_model,
                   at_s=float(at_s))

    def to_dict(self) -> Dict[str, Any]:
        return {"cohort": self.cohort, "to_model": self.to_model,
                "at_s": self.at_s}


@dataclass(frozen=True)
class CanarySpec:
    """Judge one cohort against a baseline; roll back on regression."""

    cohort: str
    baseline: str = STABLE_COHORT
    #: Regression thresholds (see repro.metrics.cohort.compare_cohorts).
    max_abort_rate_delta: float = 0.1
    max_incongruence_delta: float = 0.0
    max_p95_ratio: float = 1.5
    rollback: bool = True

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CanarySpec":
        _require(isinstance(data.get("cohort"), str) and data["cohort"],
                 "canary needs a 'cohort' name")
        kwargs: Dict[str, Any] = {"cohort": data["cohort"]}
        for key in ("baseline",):
            if key in data:
                _require(isinstance(data[key], str) and data[key],
                         f"canary: {key!r} must be a non-empty string")
                kwargs[key] = data[key]
        for key in ("max_abort_rate_delta", "max_incongruence_delta",
                    "max_p95_ratio"):
            if key in data:
                _require(isinstance(data[key], (int, float))
                         and not isinstance(data[key], bool)
                         and float(data[key]) >= 0.0,
                         f"canary: {key!r} must be a non-negative number")
                kwargs[key] = float(data[key])
        if "rollback" in data:
            _require(isinstance(data["rollback"], bool),
                     "canary: 'rollback' must be a boolean")
            kwargs["rollback"] = data["rollback"]
        unknown = set(data) - {"cohort", "baseline",
                               "max_abort_rate_delta",
                               "max_incongruence_delta",
                               "max_p95_ratio", "rollback"}
        _require(not unknown, f"canary: unknown keys {sorted(unknown)}")
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _supervision_from_dict(data: Mapping[str, Any]) -> SupervisionPolicy:
    kwargs: Dict[str, Any] = {}
    fields = {"max_restarts": int, "backoff_base_s": float,
              "backoff_factor": float, "backoff_cap_s": float}
    _require("recovery" not in data,
             "supervision: 'recovery' is a per-home setting now; set "
             "fleet.recovery, or 'recovery' in a cohort's overrides")
    unknown = set(data) - set(fields)
    _require(not unknown, f"supervision: unknown keys {sorted(unknown)}")
    for key, cast in fields.items():
        if key in data:
            _require(isinstance(data[key], (int, float))
                     and not isinstance(data[key], bool),
                     f"supervision: {key!r} must be a number")
            kwargs[key] = cast(data[key])
    policy = SupervisionPolicy(**kwargs)
    _require(policy.max_restarts >= 1,
             "supervision: 'max_restarts' must be >= 1")
    _require(policy.backoff_base_s >= 0.0 and policy.backoff_cap_s >= 0.0
             and policy.backoff_factor >= 1.0,
             "supervision: backoff parameters must be non-negative "
             "(factor >= 1)")
    return policy


@dataclass
class FleetPlan:
    """One versioned control-plane document (see module docstring)."""

    fleet: Dict[str, Any] = field(default_factory=dict)
    cohorts: Tuple[Cohort, ...] = ()
    migrations: Tuple[MigrationStep, ...] = ()
    canary: Optional[CanarySpec] = None
    supervision: SupervisionPolicy = field(
        default_factory=SupervisionPolicy)
    version: str = PLAN_VERSION

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Schema validation; raises :class:`PlanError` on violation."""
        _require(self.version == PLAN_VERSION,
                 f"unsupported plan version {self.version!r}; this "
                 f"build reads {PLAN_VERSION!r}")
        # The fleet section round-trips through FleetConfig.from_plan,
        # which rejects unknown keys and bad values (lazy import: the
        # engine imports this package's program module via the pool).
        from repro.fleet.engine import FleetConfig

        FleetConfig.from_plan(self.fleet)
        names = [cohort.name for cohort in self.cohorts]
        _require(len(names) == len(set(names)),
                 f"duplicate cohort names: {sorted(names)}")
        _require(STABLE_COHORT not in names,
                 f"cohort name {STABLE_COHORT!r} is reserved for the "
                 f"remainder cohort")
        total = sum(cohort.fraction for cohort in self.cohorts)
        _require(total <= 1.0 + 1e-9,
                 f"cohort fractions sum to {total:.3f} > 1")
        for cohort in self.cohorts:
            try:
                check_settings(cohort.override_map())
            except ValueError as exc:
                raise PlanError(f"cohort {cohort.name!r}: {exc}") from None
        known = set(names) | {STABLE_COHORT}
        migrated = set()
        for step in self.migrations:
            _require(step.cohort in known,
                     f"migration step names unknown cohort "
                     f"{step.cohort!r}; defined: {sorted(known)}")
            _require(step.cohort != STABLE_COHORT,
                     "the stable cohort cannot be migrated (it is the "
                     "comparison baseline)")
            _require(step.cohort not in migrated,
                     f"cohort {step.cohort!r} has more than one "
                     f"migration step")
            migrated.add(step.cohort)
            try:
                VisibilityModel.parse(step.to_model)
            except ValueError:
                raise PlanError(
                    f"migration step for cohort {step.cohort!r}: bad "
                    f"'to_model' {step.to_model!r}") from None
            _require(step.at_s >= 0.0,
                     f"migration step for cohort {step.cohort!r}: "
                     f"'at_s' must be non-negative")
        if self.canary is not None:
            _require(self.canary.cohort in known
                     and self.canary.cohort != STABLE_COHORT,
                     f"canary names unknown cohort "
                     f"{self.canary.cohort!r}")
            _require(self.canary.baseline in known,
                     f"canary baseline {self.canary.baseline!r} is not "
                     f"a cohort")
            _require(self.canary.baseline != self.canary.cohort,
                     "canary cohort and baseline must differ")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "version": self.version,
            "fleet": dict(self.fleet),
        }
        if self.cohorts:
            payload["cohorts"] = [c.to_dict() for c in self.cohorts]
        if self.migrations:
            payload["migrations"] = [m.to_dict() for m in self.migrations]
        if self.canary is not None:
            payload["canary"] = self.canary.to_dict()
        payload["supervision"] = asdict(self.supervision)
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetPlan":
        _require(isinstance(data, Mapping), "a plan must be a JSON object")
        unknown = set(data) - {"version", "fleet", "cohorts",
                               "migrations", "canary", "supervision"}
        _require(not unknown,
                 f"unknown top-level plan keys {sorted(unknown)}")
        version = data.get("version")
        _require(isinstance(version, str),
                 "plan needs a string 'version' "
                 f"(this build reads {PLAN_VERSION!r})")
        fleet = data.get("fleet", {})
        _require(isinstance(fleet, Mapping),
                 "'fleet' must be an object of FleetConfig fields")
        cohorts_data = data.get("cohorts", [])
        _require(isinstance(cohorts_data, list),
                 "'cohorts' must be a list")
        migrations_data = data.get("migrations", [])
        _require(isinstance(migrations_data, list),
                 "'migrations' must be a list")
        canary_data = data.get("canary")
        supervision_data = data.get("supervision", {})
        _require(isinstance(supervision_data, Mapping),
                 "'supervision' must be an object")
        return cls(
            version=version,
            fleet=dict(fleet),
            cohorts=tuple(Cohort.from_dict(c) for c in cohorts_data),
            migrations=tuple(MigrationStep.from_dict(m)
                             for m in migrations_data),
            canary=CanarySpec.from_dict(canary_data)
            if canary_data is not None else None,
            supervision=_supervision_from_dict(supervision_data),
        )

    @classmethod
    def from_json(cls, text: str) -> "FleetPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


def load_plan(path: str) -> FleetPlan:
    """Read and validate a ``repro-fleet-plan/1`` document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise PlanError(f"cannot read plan {path!r}: {exc}") from None
    return FleetPlan.from_json(text)


def assign_cohorts(plan: FleetPlan, homes: int,
                   seed: int) -> Dict[int, str]:
    """Deterministic cohort membership: ``{home_id: cohort_name}``.

    Each cohort samples ``round(fraction * homes)`` ids (at least one)
    from the homes not yet claimed, using a seed derived from the fleet
    seed and the cohort *name* — membership is stable under reordering
    of the cohort list and independent of Python's hash randomization.
    Unclaimed homes belong to :data:`STABLE_COHORT`.
    """
    assignment = {home_id: STABLE_COHORT for home_id in range(homes)}
    remaining = list(range(homes))
    # Sorted by name, so membership survives reordering the cohort list
    # (each draw's pool depends on who claimed homes before it).
    for cohort in sorted(plan.cohorts, key=lambda c: c.name):
        count = min(len(remaining),
                    max(1, int(round(cohort.fraction * homes))))
        if not count:
            continue
        rng = random.Random(derive_seed(seed, f"cohort:{cohort.name}"))
        picked = sorted(rng.sample(remaining, count))
        for home_id in picked:
            assignment[home_id] = cohort.name
        chosen = set(picked)
        remaining = [h for h in remaining if h not in chosen]
    return assignment
