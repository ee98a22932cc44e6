"""The frozen perf ledger's view of ``repro`` still resolves.

``perf_ledger/`` is the repo's benchmark and may not be edited, so a PR
that deletes or moves a name it imports or patches breaks the
benchmark driver, not tier-1.  This test reads the ledger's own tables
and fails here instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

if not (REPO_ROOT / "perf_ledger" / "trace.py").exists():
    pytest.skip("perf_ledger/ is not part of this checkout",
                allow_module_level=True)

# Tier-1 runs with PYTHONPATH=src only.
sys.path.insert(0, str(REPO_ROOT))

from perf_ledger import workloads  # noqa: E402  (imports what it uses)
from perf_ledger.trace import PATCHES  # noqa: E402


def test_every_patch_target_resolves_the_way_the_tracer_looks_it_up():
    missing = []
    for module_name, owner_name, attr, *_ in PATCHES:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name, None)
        # Tracer.install reads vars(owner)[attr]: a name inherited or
        # re-exported from elsewhere is not enough.
        if owner is None or attr not in vars(owner):
            missing.append((module_name, owner_name, attr))
    assert not missing


def test_fleet_process_config_still_constructs():
    from repro.fleet.engine import FleetConfig, FleetEngine

    config = FleetConfig(**workloads.FleetProcess.config_overrides,
                         homes=6)
    assert FleetEngine(config).config.transport == "pickle"
