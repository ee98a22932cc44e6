"""Importing the package loads no machinery that only one path runs.

The status server's ``http.server`` (which pulls in ``http.client``,
``ssl``, ``email`` and ``socketserver``) and the process pool's
``concurrent.futures`` are imported inside the one method that uses
each, so a process that never starts a status server or a process
pool does not pay for them.  The check runs in a fresh interpreter:
this test process has long since imported whatever other tests need.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SOURCE = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = ("repro", "repro.fleet", "repro.serve", "repro.hub.durability",
            "repro.metrics")

ON_DEMAND = ("ssl", "http.server", "http.client", "socketserver",
             "concurrent.futures")


def test_package_imports_leave_on_demand_modules_unloaded():
    code = (
        "import importlib, sys\n"
        f"for name in {PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(','.join(m for m in {ON_DEMAND!r} if m in sys.modules))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""
