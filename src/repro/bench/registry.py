"""The sweep registry: one named entry per experiment driver.

An experiment driver — a function returning a table (a list of row
dicts) or a dict of tables — registers itself with :func:`sweep` on its
own definition::

    @sweep("schedulers", "Fig 14", figure="fig14",
           cli=scaled_trials(5, 2), trials=4, concurrencies=(1, 2, 4, 8))
    def fig14_schedulers(trials=10, seed=6, concurrencies=(1, 2, 4, 8),
                         ...):

That one line is everything ``repro figures``, ``repro ablations``, the
``benchmarks/bench_*.py`` shape assertions and
``tests/fixtures/sweeps-golden.json`` know about the sweep: its name,
table title, figure id, the ``--trials`` rule and the reduced
parameters :func:`call` runs it with.  Nothing here measures wall
time; that is the perf ledger's job (``perf_ledger/``).
"""

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.errors import SafeHomeError

Rows = List[Dict[str, Any]]


class BenchError(SafeHomeError):
    """Registry misuse (duplicate name) or an unknown sweep name."""


@dataclass(frozen=True)
class BenchSpec:
    """One registered experiment driver plus its reduced parameters.

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
            tables; it is not a sweep of its own in the golden.
    """

    name: str
    fn: Callable[..., Any]
    title: str
    params: Mapping[str, Any] = field(default_factory=dict)
    figure: str = ""
    cli: Optional[Callable[[int], Dict[str, Any]]] = None
    hide: Tuple[str, ...] = ()
    outcome: Optional[Callable[[Any, Dict[str, Any]],
                               Dict[str, Any]]] = None
    part_of: str = ""

    def tables(self, result: Any) -> Dict[str, Rows]:
        """A driver's result as named tables (one table: ``rows``)."""
        named = result if isinstance(result, dict) else {"rows": result}
        try:
            return {key: [{column: value for column, value in row.items()
                           if column not in self.hide} for row in rows]
                    for key, rows in named.items()}
        except (AttributeError, TypeError):
            raise BenchError(f"sweep {self.name!r} returned "
                             f"{type(result).__name__}, expected rows "
                             "or a dict of rows") from None

    def call(self, **overrides: Any) -> Dict[str, Any]:
        """Run once with params merged over the registered ones; returns
        ``{"metrics": ...}`` (plus ``"timing"`` where ``outcome`` puts
        wall-clock rows)."""
        kwargs = dict(self.params)
        kwargs.update(overrides)
        result = self.fn(**kwargs)
        if self.outcome:
            return self.outcome(result, kwargs)
        return {"metrics": self.tables(result)}


_REGISTRY: Dict[str, BenchSpec] = {}


def sweep(name: str, title: str, *, figure: str = "",
          cli: Optional[Callable[[int], Dict[str, Any]]] = None,
          hide: Sequence[str] = (), outcome: Optional[Callable] = None,
          part_of: str = "",
          **params: Any) -> Callable[[Callable], Callable]:
    """Register an experiment driver under ``name``; returns it unchanged.

    See :class:`BenchSpec` for the keyword-only fields; the remaining
    keyword arguments are the parameters :func:`call` runs it with.
    Duplicate names are an error: the golden keys its entries by name.
    """
    def decorate(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise BenchError(f"duplicate sweep name {name!r}")
        _REGISTRY[name] = BenchSpec(
            name=name, fn=fn, title=title, params=params, figure=figure,
            cli=cli, hide=tuple(hide), outcome=outcome, part_of=part_of)
        return fn
    return decorate


def scaled_trials(divisor: int = 1, floor: int = 0,
                  param: str = "trials") -> Callable[[int], Dict[str, int]]:
    """A ``cli`` rule: ``--trials N`` -> ``{param: max(floor, N // divisor)}``."""
    return lambda trials: {param: max(floor, trials // divisor)}


def _load() -> None:
    """Import every registering module (the drivers register where they
    are defined; a second import is a no-op)."""
    from repro.bench.suites import perf  # noqa: F401
    from repro.experiments import ablations, figures  # noqa: F401


def get(name: str) -> BenchSpec:
    _load()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise BenchError(
            f"unknown sweep {name!r}; figures: {sorted(figures())}, "
            f"sweeps: {sorted(_REGISTRY)}")
    return spec


def call(name: str, **overrides: Any) -> Dict[str, Any]:
    """Run one registered sweep; returns its outcome dict.

    This is how ``benchmarks/bench_*.py`` fetch the rows their
    figure-shape assertions check.
    """
    return get(name).call(**overrides)


def sweeps() -> Dict[str, BenchSpec]:
    """Every entry that runs on its own (not as a table of another),
    by name: what the golden pins."""
    _load()
    return {name: spec for name, spec in sorted(_REGISTRY.items())
            if not spec.part_of}


def figures() -> Dict[str, BenchSpec]:
    """The ids ``repro figures`` accepts -> their entries."""
    _load()
    return {spec.figure: spec for spec in _REGISTRY.values()
            if spec.figure}


def parts(name: str) -> List[BenchSpec]:
    """The entries that run as tables of ``name``, in definition order."""
    _load()
    return [spec for spec in _REGISTRY.values() if spec.part_of == name]
