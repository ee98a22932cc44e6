"""Cross-home metric aggregation for fleet runs.

A fleet run produces one row per home (see
:func:`repro.fleet.worker.run_home`); this module pools those rows into
the fleet-level report: latency percentiles over *all* committed
routines in the fleet (p50/p95/p99), the fleet-wide abort rate, and the
fraction of homes whose final state was incongruent — the same §7.1
metrics the single-home experiments report, lifted to N homes.

Two aggregation paths exist:

* **exact** (:func:`aggregate_homes`, the default) — every per-home raw
  latency sample is pooled in the parent and percentiles interpolate
  over the full sorted sample, exactly as the single-home reports do.
  Pure and order-insensitive (rows are sorted by home id before any
  float is summed), so the aggregate JSON is byte-identical across
  backends, worker counts, chunk sizes and repeated runs.
* **streaming** (:class:`FleetAccumulator`) — each worker pre-reduces
  its chunk into count/sum/min/max scalars plus a fixed-resolution
  latency histogram (:class:`~repro.metrics.stats.
  FixedResolutionHistogram`); the parent merges O(workers) partials in
  chunk order instead of materializing O(homes) sample lists.
  Histogram quantiles are within one bin (default 1 ms) of the exact
  pooled value; counts, min/max and incongruence fractions are exact.
  Deterministic for a fixed chunk layout (means are partial float sums
  folded in chunk order — see docs/fleet-performance.md).
"""

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.metrics.stats import (FixedResolutionHistogram, mean,
                                 percentile_sorted)

#: Default latency-histogram bin width (seconds) for streaming mode.
DEFAULT_LATENCY_RESOLUTION = 1e-3


def aggregate_homes(rows: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Pool per-home fleet rows into one aggregate report (exact path).

    Each row must carry ``home_id``, ``routines``, ``committed``,
    ``aborted``, ``latencies`` (raw per-routine samples for pooling),
    ``temporary_incongruence``, ``final_congruent`` (or ``None`` when
    unchecked) and ``makespan``.
    """
    rows = sorted(rows, key=lambda row: row["home_id"])
    pooled = [sample for row in rows for sample in row.get("latencies", ())]
    routines = sum(row["routines"] for row in rows)
    aborted = sum(row["aborted"] for row in rows)
    checked = [row["final_congruent"] for row in rows
               if row.get("final_congruent") is not None]
    makespans = [row["makespan"] for row in rows]
    # Mean sums in home order (float addition is order-sensitive and
    # the report is byte-stable); one sort then serves every quantile.
    pooled_mean = mean(pooled)
    pooled_sorted = sorted(pooled)
    return {
        "homes": len(rows),
        "routines": routines,
        "committed": sum(row["committed"] for row in rows),
        "aborted": aborted,
        "abort_rate": (aborted / routines) if routines else 0.0,
        "latency": {
            "n": len(pooled),
            "mean": pooled_mean,
            "p50": percentile_sorted(pooled_sorted, 50),
            "p95": percentile_sorted(pooled_sorted, 95),
            "p99": percentile_sorted(pooled_sorted, 99),
            "max": pooled_sorted[-1] if pooled_sorted else 0.0,
        },
        "final_incongruence": (
            1.0 - sum(checked) / len(checked) if checked else None),
        "homes_final_checked": len(checked),
        "temporary_incongruence_mean": mean(
            [row["temporary_incongruence"] for row in rows]),
        "makespan_mean": mean(makespans),
        "makespan_max": max(makespans) if makespans else 0.0,
    }


class FleetAccumulator:
    """Mergeable cross-home aggregate — the streaming reduction unit.

    A worker folds every home row of its chunk into one accumulator
    (:meth:`add_row`), ships the accumulator instead of raw sample
    lists, and the parent folds the partials together (:meth:`merge`)
    in chunk order.  :meth:`aggregate` then emits the same keys as
    :func:`aggregate_homes`, with histogram-resolution percentiles.
    """

    __slots__ = ("homes", "routines", "committed", "aborted",
                 "lat_sum", "lat_max", "histogram",
                 "checked", "congruent",
                 "temp_incong_sum", "makespan_sum", "makespan_max")

    def __init__(self,
                 resolution: float = DEFAULT_LATENCY_RESOLUTION) -> None:
        self.homes = 0
        self.routines = 0
        self.committed = 0
        self.aborted = 0
        self.lat_sum = 0.0
        self.lat_max = 0.0
        self.histogram = FixedResolutionHistogram(resolution)
        self.checked = 0
        self.congruent = 0
        self.temp_incong_sum = 0.0
        self.makespan_sum = 0.0
        self.makespan_max = 0.0

    def add_row(self, row: Mapping[str, Any]) -> None:
        """Fold one per-home row (with raw ``latencies``) in."""
        self.homes += 1
        self.routines += row["routines"]
        self.committed += row["committed"]
        self.aborted += row["aborted"]
        latencies = row.get("latencies", ())
        if latencies:
            self.histogram.extend(latencies)
            self.lat_sum += sum(latencies)
            peak = max(latencies)
            if peak > self.lat_max:
                self.lat_max = peak
        congruent = row.get("final_congruent")
        if congruent is not None:
            self.checked += 1
            self.congruent += bool(congruent)
        self.temp_incong_sum += row["temporary_incongruence"]
        makespan = row["makespan"]
        self.makespan_sum += makespan
        if makespan > self.makespan_max:
            self.makespan_max = makespan

    def merge(self, other: "FleetAccumulator") -> "FleetAccumulator":
        """Fold another partial in (parent-side, chunk order)."""
        self.homes += other.homes
        self.routines += other.routines
        self.committed += other.committed
        self.aborted += other.aborted
        self.lat_sum += other.lat_sum
        if other.lat_max > self.lat_max:
            self.lat_max = other.lat_max
        self.histogram.merge(other.histogram)
        self.checked += other.checked
        self.congruent += other.congruent
        self.temp_incong_sum += other.temp_incong_sum
        self.makespan_sum += other.makespan_sum
        if other.makespan_max > self.makespan_max:
            self.makespan_max = other.makespan_max
        return self

    def aggregate(self) -> Dict[str, Any]:
        """The fleet report (same keys as :func:`aggregate_homes`)."""
        n = self.histogram.count
        histogram = self.histogram
        return {
            "homes": self.homes,
            "routines": self.routines,
            "committed": self.committed,
            "aborted": self.aborted,
            "abort_rate": (self.aborted / self.routines)
                          if self.routines else 0.0,
            "latency": {
                "n": n,
                "mean": (self.lat_sum / n) if n else 0.0,
                "p50": histogram.quantile(50),
                "p95": histogram.quantile(95),
                "p99": histogram.quantile(99),
                "max": self.lat_max,
            },
            "final_incongruence": (
                1.0 - self.congruent / self.checked
                if self.checked else None),
            "homes_final_checked": self.checked,
            "temporary_incongruence_mean": (
                self.temp_incong_sum / self.homes if self.homes else 0.0),
            "makespan_mean": (
                self.makespan_sum / self.homes if self.homes else 0.0),
            "makespan_max": self.makespan_max,
        }


def accumulate_rows(rows: Sequence[Mapping[str, Any]],
                    resolution: float = DEFAULT_LATENCY_RESOLUTION
                    ) -> FleetAccumulator:
    """One worker's pre-reduction: fold a chunk's rows into a partial."""
    accumulator = FleetAccumulator(resolution)
    for row in rows:
        accumulator.add_row(row)
    return accumulator


def merge_accumulators(partials: Sequence[Optional[FleetAccumulator]],
                       resolution: float = DEFAULT_LATENCY_RESOLUTION
                       ) -> FleetAccumulator:
    """Parent-side fold, in the (deterministic) chunk order given."""
    merged = FleetAccumulator(resolution)
    for partial in partials:
        if partial is not None:
            merged.merge(partial)
    return merged


def strip_latencies(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Drop raw sample lists from rows already folded into a partial."""
    for row in rows:
        row.pop("latencies", None)
    return rows
