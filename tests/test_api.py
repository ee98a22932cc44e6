"""The ``repro.api`` facade: keyword-only constructors, pinned
deprecation shims, and coverage of every public entry point the docs
examples import — and the declared platform: every module must import
on the oldest Python ``pyproject.toml`` promises."""

import ast
import warnings
from pathlib import Path

import pytest

import repro.api as api
from repro.api import (POSITIONAL_DEPRECATION, FleetConfig, FleetEngine,
                       FleetPlan, SafeHome, ServeHub, SynthSpec)


def test_all_exports_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_facades_subclass_the_real_types():
    from repro.fleet.control.plan import FleetPlan as RealPlan
    from repro.fleet.engine import FleetEngine as RealEngine
    from repro.hub.safehome import SafeHome as RealHome
    from repro.serve.hub import ServeHub as RealHub
    from repro.workloads.synth.spec import SynthSpec as RealSpec

    assert issubclass(SafeHome, RealHome)
    assert issubclass(FleetEngine, RealEngine)
    assert issubclass(ServeHub, RealHub)
    assert issubclass(SynthSpec, RealSpec)
    assert issubclass(FleetPlan, RealPlan)


@pytest.mark.parametrize("build", [
    lambda: SafeHome("ev"),
    lambda: FleetEngine(FleetConfig(homes=2)),
    lambda: ServeHub({"home-0": SafeHome(visibility="ev")}),
    lambda: SynthSpec(3),
    lambda: FleetPlan({"homes": 2}),
], ids=["SafeHome", "FleetEngine", "ServeHub", "SynthSpec", "FleetPlan"])
def test_positional_construction_warns_with_pinned_message(build):
    with pytest.warns(DeprecationWarning) as captured:
        build()
    messages = [str(w.message) for w in captured]
    assert any(POSITIONAL_DEPRECATION in m for m in messages), messages


def test_keyword_construction_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        SafeHome(visibility="ev", durability=True)
        FleetEngine(config=FleetConfig(homes=2))
        ServeHub(homes={"home-0": SafeHome(visibility="ev")})
        SynthSpec(seed=3, devices=4)
        FleetPlan(fleet={"homes": 2, "seed": 1})


def test_the_deprecation_message_is_pinned():
    # Downstream pipelines filter on this exact text; changing it is a
    # breaking API change, not a wording tweak.
    assert POSITIONAL_DEPRECATION == (
        "positional arguments to repro.api constructors are deprecated; "
        "pass keyword arguments")


def test_facade_objects_behave_like_the_real_ones():
    plan = FleetPlan(fleet={"homes": 4, "seed": 42})
    assert plan.version == "repro-fleet-plan/1"
    assert FleetConfig.from_plan(plan.fleet).homes == 4

    home = SafeHome(visibility="ev", durability=True, seed=7)
    assert home.wal is not None

    engine = FleetEngine(config=FleetConfig(homes=2, seed=1))
    result = engine.run()
    assert len(result.rows) == 2


# -- declared platform (requires-python >= 3.9) ---------------------------------

def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def pep604_unions(source: str):
    """Line numbers of ``X | Y`` annotations Python 3.9 would evaluate
    (and fail on): none when the module defers annotations.  Annotated
    locals, which no Python evaluates, are held to the same rule."""
    tree = ast.parse(source)
    deferred = any(isinstance(node, ast.ImportFrom)
                   and node.module == "__future__"
                   and any(a.name == "annotations" for a in node.names)
                   for node in tree.body)
    if deferred:
        return []
    return sorted({inner.lineno for annotation in _annotations(tree)
                   for inner in ast.walk(annotation)
                   if isinstance(inner, ast.BinOp)
                   and isinstance(inner.op, ast.BitOr)})


def test_pep604_detector_sees_fields_arguments_and_returns():
    bad = ("from dataclasses import dataclass\n"
           "@dataclass\n"
           "class P:\n"
           "    x: float | None = None\n"
           "def f(a: 'int', b: list[int | str] = ()) -> int | None: ...\n")
    assert pep604_unions(bad) == [4, 5]
    assert pep604_unions("from __future__ import annotations\n" + bad) == []
    assert pep604_unions("x: int = 1 | 2\n") == []


def test_no_module_evaluates_a_pep604_union_on_python_39():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = {}
    for path in sorted(src.rglob("*.py")):
        lines = pep604_unions(path.read_text(encoding="utf-8"))
        if lines:
            offenders[str(path.relative_to(src))] = lines
    assert not offenders, (
        f"`X | Y` annotations without `from __future__ import "
        f"annotations` raise TypeError on Python 3.9: {offenders}")
