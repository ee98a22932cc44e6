"""The shared benchmark result schema.

Every harness run produces one :class:`BenchResult` per benchmark and
one merged summary dict (see :mod:`repro.bench.runner`).  The schema
separates *deterministic* fields (name, params, events, virtual time,
``metrics``) from *timing* fields (wall seconds, events/sec, homes/sec,
the free-form ``timing`` dict): two seeded runs of the same suite must
agree on every non-timing field, and the CI determinism test holds the
harness to that.
"""

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

SCHEMA = "repro-bench/1"

#: Fields whose values depend on the host's wall clock.  Everything
#: else must be bit-deterministic for a fixed seed and code version.
TIMING_FIELDS = ("wall_s", "wall_s_all", "events_per_sec",
                 "homes_per_sec", "timing")


@dataclass
class BenchResult:
    """One benchmark's measured outcome.

    Attributes:
        name: registry name.
        suite: suite the entry is registered under.
        params: the parameters the benchmark actually ran with.
        warmup: untimed warmup iterations executed first.
        repeats: timed iterations; ``wall_s`` is their minimum.
        wall_s: best (min-of-N) wall-clock seconds per iteration.
        wall_s_all: every timed iteration, in order.
        events: simulator events processed by one iteration (None when
            the benchmark runs no simulator, e.g. pure-CPU paths).
        events_per_sec: ``events / wall_s``.
        homes: fleet size for fleet benchmarks.
        homes_per_sec: ``homes / wall_s``.
        virtual_s: simulated virtual time covered by one iteration.
        latency_p50 / latency_p95: headline latency summary when the
            benchmark reports one (virtual seconds — deterministic).
        metrics: free-form deterministic payload (figure rows, counts).
        timing: free-form wall-clock-derived payload (excluded from
            determinism checks).
        meta: environment stamp (git describe etc.); summary-level by
            default, per-result when running a single benchmark.
    """

    name: str
    suite: str
    params: Dict[str, Any] = field(default_factory=dict)
    warmup: int = 0
    repeats: int = 1
    wall_s: float = 0.0
    wall_s_all: List[float] = field(default_factory=list)
    events: Optional[int] = None
    events_per_sec: Optional[float] = None
    homes: Optional[int] = None
    homes_per_sec: Optional[float] = None
    virtual_s: Optional[float] = None
    latency_p50: Optional[float] = None
    latency_p95: Optional[float] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    timing: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["schema"] = SCHEMA
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        data = {key: value for key, value in payload.items()
                if key != "schema"}
        return cls(**data)

    def deterministic_dict(self) -> Dict[str, Any]:
        """The result minus every timing-dependent field."""
        payload = self.to_dict()
        for key in TIMING_FIELDS:
            payload.pop(key, None)
        payload.pop("meta", None)
        return payload

    def row(self) -> Dict[str, Any]:
        """Flat row for the CLI table."""
        return {
            "name": self.name,
            "suite": self.suite,
            "wall_ms": round(self.wall_s * 1e3, 2),
            "events": self.events,
            "events_per_sec": (round(self.events_per_sec)
                               if self.events_per_sec else None),
            "homes_per_sec": (round(self.homes_per_sec, 1)
                              if self.homes_per_sec else None),
            "lat_p50": (round(self.latency_p50, 3)
                        if self.latency_p50 is not None else None),
            "lat_p95": (round(self.latency_p95, 3)
                        if self.latency_p95 is not None else None),
        }
