"""The benchmark registry: one named entry per measurable workload.

A benchmark is a plain function returning a deterministic ``metrics``
dict (plus an optional ``timing`` dict for wall-clock-derived numbers
that are *excluded* from determinism checks)::

    @benchmark("sim_dispatch", suite="smoke", events=20000, fanout=4)
    def sim_dispatch(events, fanout):
        ...
        return {"metrics": {...}, "virtual_s": sim.now}

The decorator's keyword arguments are the entry's default parameters;
``repro bench`` (and :func:`repro.bench.runner.run_suite`) times the
call with warmup/repeat/min-of-N and wraps the outcome in a
:class:`~repro.bench.result.BenchResult`.

An experiment driver — a function returning a table (a list of row
dicts) or a dict of tables — registers itself with :func:`sweep`
instead, on its own definition::

    @sweep("schedulers", "Fig 14", figure="fig14",
           cli=scaled_trials(5, 2), trials=4, concurrencies=(1, 2, 4, 8))
    def fig14_schedulers(trials=10, seed=6, concurrencies=(1, 2, 4, 8),
                         ...):

That one line is everything ``repro figures``, ``repro ablations``,
``repro bench`` and the ``benchmarks/bench_*.py`` shape assertions know
about the sweep: its benchmark name, table title, figure id, the
``--trials`` rule and the ``repro bench`` default parameters.

Suites
------

* ``smoke`` — the fast subset (seconds, not minutes); every smoke
  benchmark is also part of ``full``.
* ``full``  — everything, including the paper-figure sweeps.
"""

import fnmatch
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.errors import SafeHomeError

SUITES = ("smoke", "full")

Rows = List[Dict[str, Any]]


class BenchError(SafeHomeError):
    """Registry or harness misuse (duplicate name, unknown suite...)."""


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: its callable plus default parameters.

    The fields from ``title`` on are set by :func:`sweep` only: ``fn``
    is then an experiment driver and :meth:`call` wraps its tables into
    an outcome.

    Attributes:
        title: table title; a dict-valued driver prints one table per
            key as ``"title (key)"``.
        figure: the id ``repro figures`` accepts (``"fig14"``).
        cli: ``--trials N`` -> driver keyword arguments for ``repro
            figures`` / ``repro ablations`` (None: driver defaults).
        hide: row keys left out of printed tables and metrics.
        outcome: ``(result, params) -> outcome`` for a driver whose rows
            are not deterministic metrics as they stand.
        part_of: name of the entry that runs this one as one of its
            tables; ``repro bench`` does not select it on its own.
    """

    name: str
    fn: Callable[..., Any]
    suite: str = "full"
    params: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""
    title: str = ""
    figure: str = ""
    cli: Optional[Callable[[int], Dict[str, Any]]] = None
    hide: Tuple[str, ...] = ()
    outcome: Optional[Callable[[Any, Dict[str, Any]],
                               Dict[str, Any]]] = None
    part_of: str = ""

    def tables(self, result: Any) -> Dict[str, Rows]:
        """A driver's result as named tables (one table: ``rows``)."""
        named = result if isinstance(result, dict) else {"rows": result}
        return {key: [{column: value for column, value in row.items()
                       if column not in self.hide} for row in rows]
                for key, rows in named.items()}

    def call(self, **overrides: Any) -> Dict[str, Any]:
        """Invoke once (untimed) with params merged over defaults."""
        kwargs = dict(self.params)
        kwargs.update(overrides)
        outcome = self.fn(**kwargs)
        if self.outcome:
            outcome = self.outcome(outcome, kwargs)
        elif self.title:
            outcome = {"metrics": self.tables(outcome)}
        if not isinstance(outcome, dict):
            raise BenchError(
                f"benchmark {self.name!r} returned "
                f"{type(outcome).__name__}, expected a dict outcome")
        return outcome


_REGISTRY: Dict[str, BenchSpec] = {}


def _first_line(fn: Callable) -> str:
    return (fn.__doc__ or "").strip().split("\n")[0]


def benchmark(name: str, suite: str = "full",
              **params: Any) -> Callable[[Callable], Callable]:
    """Register a benchmark function under ``name``.

    ``suite`` must be one of :data:`SUITES`; smoke entries are included
    in the full suite automatically.  Keyword arguments become the
    entry's default parameters.  Duplicate names are an error — the
    merged summary keys results by name.
    """
    def decorate(fn: Callable) -> Callable:
        register(BenchSpec(name=name, fn=fn, suite=suite, params=params,
                           description=_first_line(fn)))
        return fn
    return decorate


def sweep(name: str, title: str, *, figure: str = "", suite: str = "full",
          cli: Optional[Callable[[int], Dict[str, Any]]] = None,
          hide: Sequence[str] = (), outcome: Optional[Callable] = None,
          part_of: str = "",
          **params: Any) -> Callable[[Callable], Callable]:
    """Register an experiment driver under ``name``; returns it unchanged.

    See :class:`BenchSpec` for the keyword-only fields; the remaining
    keyword arguments are the ``repro bench`` default parameters.
    """
    def decorate(fn: Callable) -> Callable:
        register(BenchSpec(name=name, fn=fn, suite=suite, params=params,
                           description=f"{title}: {_first_line(fn)}",
                           title=title, figure=figure, cli=cli,
                           hide=tuple(hide), outcome=outcome,
                           part_of=part_of))
        return fn
    return decorate


def scaled_trials(divisor: int = 1, floor: int = 0,
                  param: str = "trials") -> Callable[[int], Dict[str, int]]:
    """A ``cli`` rule: ``--trials N`` -> ``{param: max(floor, N // divisor)}``."""
    return lambda trials: {param: max(floor, trials // divisor)}


def register(spec: BenchSpec) -> None:
    if spec.suite not in SUITES:
        raise BenchError(f"unknown suite {spec.suite!r}; "
                         f"pick from {SUITES}")
    if spec.name in _REGISTRY:
        raise BenchError(f"duplicate benchmark name {spec.name!r}")
    _REGISTRY[spec.name] = spec


def get(name: str) -> BenchSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        # Lazily pull in the built-in suites so registry.call() works
        # without an explicit load (benchmarks/bench_*.py rely on it).
        from repro.bench.suites import load_builtin_suites

        load_builtin_suites()
        spec = _REGISTRY.get(name)
    if spec is None:
        raise BenchError(
            f"unknown benchmark {name!r}; registered: {sorted(_REGISTRY)}")
    return spec


def call(name: str, **overrides: Any) -> Dict[str, Any]:
    """Run one registered benchmark untimed; returns its outcome dict.

    This is how ``benchmarks/bench_*.py`` fetch the rows their
    figure-shape assertions check.
    """
    return get(name).call(**overrides)


def select(suite: str = "full",
           pattern: Optional[str] = None) -> List[BenchSpec]:
    """Specs in a suite (name-sorted), optionally filtered.

    ``pattern`` is one or more ``|``-separated alternatives, each a
    glob (fnmatch) or plain substring.
    """
    if suite not in SUITES:
        raise BenchError(f"unknown suite {suite!r}; pick from {SUITES}")
    specs = [spec for spec in _REGISTRY.values()
             if (suite == "full" or spec.suite == suite)
             and not spec.part_of]
    if pattern:
        alternatives = [alt for alt in pattern.split("|") if alt]
        specs = [spec for spec in specs
                 if any(fnmatch.fnmatch(spec.name, alt)
                        or alt in spec.name
                        for alt in alternatives)]
    return sorted(specs, key=lambda spec: spec.name)


def names(suite: str = "full") -> List[str]:
    return [spec.name for spec in select(suite)]


def figures() -> Dict[str, BenchSpec]:
    """The ids ``repro figures`` accepts -> their entries."""
    return {spec.figure: spec for spec in _REGISTRY.values()
            if spec.figure}


def parts(name: str) -> List[BenchSpec]:
    """The entries that run as tables of ``name``, in definition order."""
    return [spec for spec in _REGISTRY.values() if spec.part_of == name]
