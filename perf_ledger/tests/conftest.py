"""Path set-up for the ledger's own tests.

Run with ``python -m pytest perf_ledger/tests -q`` from the repository
root (tier-1 collects only ``tests/``).  The ledger measures the
program from outside, so the tests import it the way run.py does.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)
