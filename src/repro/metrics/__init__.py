"""Evaluation metrics (§7.1).

* end-to-end latency — submission → successful completion;
* temporary incongruence — another routine changed a device this
  routine modified, before this routine completed;
* final incongruence — the end state matches no serial order of the
  committed routines;
* parallelism level — concurrently executing routines, sampled at
  routine start/end points;
* stretch factor, order mismatch (swap distance), abort rate and
  rollback overhead.
"""

from repro.metrics.congruence import (end_state_of_order,
                                      final_state_serializable,
                                      serial_end_state_exists,
                                      temporary_incongruence)
from repro.metrics.cohort import (cohort_aggregates, cohort_rows,
                                  compare_cohorts)
from repro.metrics.fleet import aggregate_homes
from repro.metrics.recovery import recovery_summary
from repro.metrics.serialization import (reconstruct_serial_order,
                                         validate_serial_order)
from repro.metrics.stats import (cdf_points, mean, normalized_swap_distance,
                                 percentile, summarize)
from repro.metrics.collector import MetricsReport, analyze

__all__ = [
    "temporary_incongruence",
    "final_state_serializable",
    "serial_end_state_exists",
    "end_state_of_order",
    "reconstruct_serial_order",
    "validate_serial_order",
    "percentile",
    "mean",
    "cdf_points",
    "summarize",
    "normalized_swap_distance",
    "MetricsReport",
    "analyze",
    "aggregate_homes",
    "cohort_rows",
    "cohort_aggregates",
    "compare_cohorts",
    "recovery_summary",
]
