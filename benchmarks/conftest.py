"""Shared helper for the paper-shape assertions.

Each ``bench_*.py`` file fetches one registered entry's tables through
:func:`repro.bench.call` — at the parameters ``repro bench`` runs it
with, unless the assertion needs a wider axis — asserts the paper's
figure shapes on them and prints the tables.  ``scripts/check.sh`` runs
the directory (``python -m pytest benchmarks/bench_*.py``).
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Run a sweep exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
