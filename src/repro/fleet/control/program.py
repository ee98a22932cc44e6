"""The compiled form of a fleet plan: per-home marching orders.

A :class:`ControlProgram` is what the :class:`~repro.fleet.control.
loop.ControlLoop` broadcasts to the worker pool (inside the
:class:`~repro.fleet.pool.WorkerContext`): one :class:`HomeDirective`
per home that needs controlled execution, keyed by home id, plus the
fleet-wide :class:`SupervisionPolicy`.  A directive carries its
cohort's overrides, not a copy of the settings: the worker builds the
home's recipe with ``FleetConfig.spec(..., **overrides)``.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the supervisor restarts crashed homes (in the home's own
    ``recovery`` mode, from the fleet section or its cohort).

    Backoff is *virtual*: the supervisor journals the delay it would
    apply (``min(cap, base * factor**(attempt-1))``) instead of
    sleeping, which keeps the control loop deterministic and fast while
    still exercising — and testing — the storm-damping schedule.
    """

    #: Give up on a home after this many restarts (it is reported as
    #: ``failed`` and excluded from cohort aggregates).
    max_restarts: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap_s: float = 8.0

    def backoff_s(self, attempt: int) -> float:
        """The journaled delay before restart ``attempt`` (1-based)."""
        delay = self.backoff_base_s * (self.backoff_factor
                                       ** max(0, attempt - 1))
        return round(min(self.backoff_cap_s, delay), 6)


@dataclass(frozen=True)
class HomeDirective:
    """One home's orders: its cohort, that cohort's setting overrides
    (none on rollback) and its migration step (``migrate_to == ""``
    means no migration)."""

    cohort: str
    overrides: Tuple[Tuple[str, Any], ...] = ()
    migrate_to: str = ""
    migrate_at: float = 0.0


@dataclass(frozen=True)
class ControlProgram:
    """Every directive of one control-loop spawn, keyed by home id."""

    directives: Dict[int, HomeDirective]
    supervision: SupervisionPolicy = field(default_factory=SupervisionPolicy)
