"""Built-in benchmark entries.

The experiment drivers register where they are defined
(:mod:`repro.experiments.figures`, :mod:`repro.experiments.ablations`),
everything else in :mod:`repro.bench.suites.perf`; the runner and CLI
call :func:`load_builtin_suites` instead of importing at ``repro.bench``
import time so the registry stays cheap to touch and tests can build
isolated registries.
"""

_LOADED = False


def load_builtin_suites() -> None:
    """Idempotently import every registering module."""
    global _LOADED
    if _LOADED:
        return
    from repro.bench.suites import perf  # noqa: F401
    from repro.experiments import ablations, figures  # noqa: F401
    _LOADED = True
