"""The per-home recipe and the simulation defaults it shares.

A :class:`HomeSpec` is the complete, picklable recipe for one home —
scenario name, derived seed, visibility model, scheduler — so workers
rebuild the workload locally instead of shipping simulator objects
across the pool.  Which worker simulates which homes is decided by the
chunk plan in :mod:`repro.fleet.pool`.
"""

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Mapping

# Per-home simulation defaults, shared verbatim by FleetConfig so a
# bare HomeSpec and a fleet-derived one can never drift apart.
DEFAULT_MODEL = "ev"
DEFAULT_SCHEDULER = "timeline"
DEFAULT_EXECUTION = "serial"
DEFAULT_CHECK_FINAL = True
DEFAULT_EXHAUSTIVE_LIMIT = 7
DEFAULT_MAX_EVENTS = 5_000_000
DEFAULT_CRASHES = 0             # hub crashes per home (0 = no chaos)
DEFAULT_RECOVERY = "replay"     # hub recovery mode when crashes > 0


@dataclass(frozen=True)
class HomeSpec:
    """Everything needed to simulate one home, anywhere."""

    home_id: int
    scenario: str
    seed: int
    model: str = DEFAULT_MODEL
    scheduler: str = DEFAULT_SCHEDULER
    execution: str = DEFAULT_EXECUTION
    check_final: bool = DEFAULT_CHECK_FINAL
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
    max_events: int = DEFAULT_MAX_EVENTS
    # Hub-crash chaos: crash the home's hub this many times at
    # seed-derived virtual times and recover in `recovery` mode (see
    # docs/durability.md).  0 keeps the home non-durable and the row
    # byte-identical to pre-durability fleets.
    crashes: int = DEFAULT_CRASHES
    recovery: str = DEFAULT_RECOVERY

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

