"""The sweep registry.

Every paper figure, ablation and extension sweep is declared once, with
``@sweep`` on its driver, and ``repro figures``, ``repro ablations``,
``benchmarks/bench_*.py`` and ``tests/fixtures/sweeps-golden.json`` all
read it.  Wall-clock numbers are the perf ledger's (``perf_ledger/``).
See docs/benchmarks.md.

    >>> from repro.bench import registry
    >>> registry.figures()["fig02"].name
    'example_timeline'
"""

from repro.bench.registry import BenchError, BenchSpec, call, get, sweep

__all__ = ["BenchError", "BenchSpec", "call", "get", "sweep"]
