"""The benchmark subsystem.

One registry, one result schema, one runner — every figure, sweep and
hot-path probe is declared once in the registry, and ``repro figures``,
``repro ablations``, ``repro bench`` and ``benchmarks/bench_*.py`` all
read it.  ``repro bench`` prints a min-of-N timing table for a
developer; the wall-clock gate is ``perf_ledger/``.  See
docs/benchmarks.md for the design and workflow.

    >>> from repro.bench import registry
    >>> from repro.bench.suites import load_builtin_suites
    >>> load_builtin_suites()
    >>> "sim_dispatch" in registry.names("smoke")
    True
"""

from repro.bench.registry import (BenchError, BenchSpec, benchmark, call,
                                  get, names, select, sweep)
from repro.bench.result import BenchResult
from repro.bench.runner import run_suite, write_summary
from repro.bench.timing import run_benchmark

__all__ = [
    "BenchError", "BenchResult", "BenchSpec", "benchmark", "call", "get",
    "names", "run_benchmark", "run_suite", "select", "sweep",
    "write_summary",
]
