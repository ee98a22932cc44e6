"""Run benchmark suites and emit the merged summary JSON.

The summary is one document per invocation::

    {
      "schema": "repro-bench-summary/1",
      "suite": "smoke",
      "meta": {"git": "...", "python": "...", ...},
      "results": [BenchResult..., keyed-by-name order]
    }

``repro bench --json BENCH_summary.json`` writes it.  The timings are a
developer's table, not a gate: wall-clock regressions are judged by
``perf_ledger/compare.py`` on interleaved parent-vs-change runs.
"""

import json
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.bench import registry, timing
from repro.bench.registry import BenchError
from repro.bench.result import BenchResult
from repro.bench.suites import load_builtin_suites

SUMMARY_SCHEMA = "repro-bench-summary/1"


def describe_environment(with_timestamp: bool = True) -> Dict[str, Any]:
    """Git-describable metadata stamped on every summary."""
    meta: Dict[str, Any] = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }
    try:
        meta["git"] = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.strip()
    except Exception:
        meta["git"] = None
    if with_timestamp:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return meta


def run_suite(suite: str = "smoke", pattern: Optional[str] = None,
              warmup: int = 1, repeats: int = 3,
              overrides: Optional[Dict[str, Dict[str, Any]]] = None,
              progress: Optional[Callable[[str], None]] = None,
              ) -> Dict[str, Any]:
    """Measure every selected benchmark in one process.

    Args:
        suite: ``smoke`` or ``full``.
        pattern: optional glob/substring filter on benchmark names.
        warmup / repeats: timing policy per benchmark (min-of-N).
        overrides: per-benchmark parameter overrides,
            ``{"parallel_exec": {"width": 4}}`` — used by tests to
            shrink workloads; the CLI runs registry defaults.
        progress: optional callable for one line per benchmark.

    Returns:
        The summary dict (see module docstring).
    """
    load_builtin_suites()
    specs = registry.select(suite=suite, pattern=pattern)
    if not specs:
        raise BenchError(
            f"no benchmarks match suite={suite!r} pattern={pattern!r}")
    overrides = overrides or {}
    results: List[BenchResult] = []
    for spec in specs:
        if progress:
            progress(f"bench {spec.name} ...")
        result = timing.run_benchmark(spec, warmup=warmup,
                                      repeats=repeats,
                                      **overrides.get(spec.name, {}))
        results.append(result)
        if progress:
            row = result.row()
            progress(f"bench {spec.name}: {row['wall_ms']} ms"
                     + (f", {row['events_per_sec']} events/s"
                        if row["events_per_sec"] else ""))

    return {
        "schema": SUMMARY_SCHEMA,
        "suite": suite,
        "filter": pattern,
        "meta": describe_environment(),
        "results": [result.to_dict() for result in results],
    }


def summary_results(summary: Dict[str, Any]) -> List[BenchResult]:
    """Rehydrate the results list from a summary dict."""
    return [BenchResult.from_dict(entry)
            for entry in summary.get("results", [])]


def write_summary(summary: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
