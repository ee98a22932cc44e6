"""Sweeps that are not paper-figure drivers (:mod:`.perf`) and the
crash-and-recover step they share with ``benchmarks/``."""
