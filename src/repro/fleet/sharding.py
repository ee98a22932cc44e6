"""The per-home recipe: one declaration, one validator.

A :class:`HomeSpec` is the complete, picklable recipe for one home —
scenario, derived seed and the per-home :data:`SETTINGS` — so workers
rebuild the workload locally instead of shipping simulator objects.
Its field defaults are the fleet's defaults, and ``FleetConfig.spec``
is the one builder of specs.
"""

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Mapping

#: The per-home settings: set fleet-wide on FleetConfig, overridden
#: per cohort by a plan, and carried to the worker only by HomeSpec.
SETTINGS = ("model", "scheduler", "execution", "check_final",
            "exhaustive_limit", "max_events", "crashes", "recovery")


@dataclass(frozen=True)
class HomeSpec:
    """Everything needed to simulate one home, anywhere."""

    home_id: int
    scenario: str
    seed: int
    model: str = "ev"
    scheduler: str = "timeline"
    execution: str = "serial"
    check_final: bool = True
    exhaustive_limit: int = 7
    max_events: int = 5_000_000
    # Hub-crash chaos: crash the home's hub this many times at
    # seed-derived virtual times and recover in `recovery` mode (see
    # docs/durability.md).  0 keeps the home non-durable and the row
    # byte-identical to pre-durability fleets.
    crashes: int = 0
    recovery: str = "replay"

    @classmethod
    def from_plan(cls, data: Mapping[str, Any]) -> "HomeSpec":
        """Build a spec from its plan/JSON dict form.

        The inverse of :meth:`to_plan`; unknown keys raise
        :class:`~repro.errors.PlanError` so serialized specs fail
        loudly when the schema drifts.
        """
        from repro.errors import PlanError

        valid = {f.name for f in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise PlanError(f"unknown home spec keys {sorted(unknown)}; "
                            f"valid keys: {sorted(valid)}")
        try:
            return cls(**dict(data))
        except TypeError as exc:
            raise PlanError(f"bad home spec: {exc}") from None

    def to_plan(self) -> Dict[str, Any]:
        """This spec as a JSON-ready dict (round-trips via
        :meth:`from_plan`)."""
        return asdict(self)


def check_settings(settings: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless every per-home setting present in
    ``settings`` holds a value the hub accepts.

    Runs once per ``FleetConfig`` and once per cohort's overrides —
    never per home — so a bad plan fails at load, not inside a pool.
    """
    from repro.core.execution.plan import STRATEGIES
    from repro.core.schedulers import _SCHEDULERS
    from repro.core.visibility import VisibilityModel
    from repro.hub.durability.recovery import RECOVERY_MODES

    if "model" in settings:
        VisibilityModel.parse(str(settings["model"]))
    for key, allowed, value in (
            ("scheduler", sorted(_SCHEDULERS),
             str(settings.get("scheduler", "")).lower()),
            ("execution", STRATEGIES, settings.get("execution")),
            ("recovery", RECOVERY_MODES, settings.get("recovery"))):
        if key in settings and value not in allowed:
            raise ValueError(f"{key}={settings[key]!r} "
                             f"(pick from {list(allowed)})")
    crashes = settings.get("crashes", 0)
    if type(crashes) is not int or crashes < 0:
        raise ValueError(f"crashes must be >= 0, got {crashes!r}")
