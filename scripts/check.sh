#!/usr/bin/env bash
# The one-command CI gate: tests, doc doctests, determinism, paper
# figure shapes, ledger check, lint.
# Usage: ./scripts/check.sh   (from anywhere; PYTHON=... to override)
set -euo pipefail
cd "$(dirname "$0")/.."

PY="${PYTHON:-python3}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests (pytest) =="
# pytest-xdist (a dev extra) cuts the 3-version CI matrix wall time;
# fall back to serial when it is absent (e.g. offline machines).
if "$PY" -c "import xdist" >/dev/null 2>&1; then
    "$PY" -m pytest -x -q -n auto
else
    "$PY" -m pytest -x -q
fi

echo
echo "== doctests in docs code blocks =="
"$PY" -m doctest README.md docs/*.md
echo "doctests OK"

echo
echo "== markdown links and anchors =="
"$PY" scripts/check_links.py

echo
echo "== CLI reference drift (docs/cli.md) =="
"$PY" scripts/gen_cli_docs.py --check

echo
echo "== determinism gate (serial + parallel execution) =="
DET_DIR="$(mktemp -d)"
trap 'rm -rf "$DET_DIR"' EXIT
# Run one repro command twice; its --json output must be byte-identical.
twice_identical() {
    "$PY" -m repro "$@" --json "$DET_DIR/first.json" >/dev/null
    "$PY" -m repro "$@" --json "$DET_DIR/second.json" >/dev/null
    cmp "$DET_DIR/first.json" "$DET_DIR/second.json"
}
for exec_mode in serial parallel; do
    twice_identical scenario morning --model ev --execution "$exec_mode"
    twice_identical scenario morning --model ev --scheduler jit \
        --execution "$exec_mode"
    twice_identical scenario fanout --model psv --execution "$exec_mode"
    echo "execution=$exec_mode deterministic"
done
# Report-path passes agree exactly with their quadratic definitions: a
# deeper example budget than tier-1, the seed pinned whatever the profile.
REPRO_HYPOTHESIS_EXAMPLES=100 "$PY" -m pytest -q -p no:cacheprovider \
    --hypothesis-seed=14 tests/test_metrics_equivalence.py
echo "report-path passes equal their reference definitions"
# EV's maintained closure (one bit and a preSet/postSet mask per placed
# routine) equals the closure rebuilt from scratch after every mutation,
# and its two-neighbour gap answers equal the all-pairs definitions:
# generated tables (cyclic ones included), generated table walks and
# whole micro homes, timeline / jit / fcfs x both plans.
REPRO_HYPOTHESIS_EXAMPLES=100 "$PY" -m pytest -q -p no:cacheprovider \
    --hypothesis-seed=17 tests/test_closure_equivalence.py
echo "EV's maintained closure equals its from-scratch definition"
# EV under leases is serializable: 200 seeded micro homes x timeline /
# jit x both plans, every run judged by the oracle, and neither the
# retained order nor the closure may outlive the run (~30 s).
"$PY" scripts/check_ev_serializable.py
# Two `repro bench` runs agree on every non-timing field.
for run in bench_a bench_b; do
    "$PY" -m repro bench --suite smoke --repeats 1 --warmup 0 \
        --filter example_timeline --json "$DET_DIR/$run.json" \
        >/dev/null 2>&1
done
"$PY" - "$DET_DIR/bench_a.json" "$DET_DIR/bench_b.json" <<'PYEOF'
import json, sys
from repro.bench.result import BenchResult
def strip(path):
    return [BenchResult.from_dict(entry).deterministic_dict()
            for entry in json.load(open(path))["results"]]
assert strip(sys.argv[1]) == strip(sys.argv[2]), \
    "bench metrics are not deterministic"
PYEOF
echo "bench summary deterministic (non-timing fields)"

echo
echo "== crash-recovery gate (durable hub, chaos workload) =="
for exec_mode in serial parallel; do
    twice_identical crash-recovery --model ev --execution "$exec_mode" \
        --seed 3 --crashes 2
    "$PY" - "$DET_DIR/first.json" <<'PYEOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["congruent"] is True, "replay recovery diverged"
PYEOF
    echo "execution=$exec_mode crash-recovery congruent + deterministic"
done
twice_identical fleet --homes 10 --seed 42 --crashes 2
echo "durable fleet (crashes=2) deterministic"
# Checkpoint digests and record frames agree exactly with their plain
# definitions (deeper example budget than tier-1, seed pinned), and a
# healthy log still has the committed bytes.
REPRO_HYPOTHESIS_EXAMPLES=100 "$PY" -m pytest -q -p no:cacheprovider \
    --hypothesis-seed=15 tests/test_checkpoint_equivalence.py
"$PY" scripts/gen_wal_golden.py --check
echo "checkpoint digests equal their reference definition"
# Every figure, ablation and probe of `repro bench --suite full` still
# reports the committed rows (tier-1 skips Fig 13; this runs all 19).
"$PY" scripts/gen_sweeps_golden.py --check
# A served hub (shared bank routines, 2 homes x 8 tenants x 60 tickets
# per model) still reports the committed digests and oracle verdicts.
"$PY" scripts/gen_serve_golden.py --check

echo
echo "== fsck gate (golden fixtures + seeded corruption matrix) =="
"$PY" scripts/gen_fsck_fixtures.py --check
"$PY" scripts/fsck_matrix.py --models ev,gsv --json "$DET_DIR/fsck.json"
# WAL shape: no observation frames, bytes per routine under the ceiling.
"$PY" scripts/check_wal_shape.py
# The fleet log is a bundle of home logs: byte-identical whichever
# backend spooled it, clean to fsck, and one flipped byte is refused.
for backend in serial process; do
    "$PY" -m repro fleet --homes 12 --seed 42 --crashes 1 \
        --backend "$backend" --wal-dir "$DET_DIR/wal-$backend" >/dev/null
done
cmp "$DET_DIR/wal-serial/fleet-wal.segs" "$DET_DIR/wal-process/fleet-wal.segs"
cmp "$DET_DIR/wal-serial/fleet-wal-index.json" \
    "$DET_DIR/wal-process/fleet-wal-index.json"
"$PY" -m repro fsck "$DET_DIR/wal-serial" --report "$DET_DIR/fleet-fsck.json"
"$PY" - "$DET_DIR/wal-serial/fleet-wal.segs" <<'PYEOF'
import sys
with open(sys.argv[1], "r+b") as log:
    log.seek(20000)
    byte = log.read(1)[0]
    log.seek(20000)
    log.write(bytes([byte ^ 0x01]))
PYEOF
code=0
"$PY" -m repro fsck "$DET_DIR/wal-serial" \
    --report "$DET_DIR/fleet-fsck.json" 2>/dev/null || code=$?
[ "$code" -eq 2 ] || { echo "fleet fsck: flipped byte exited $code, not 2"; exit 1; }
echo "fleet log: backend-invariant bytes, fsck 0 clean / 2 after a flipped byte"

echo
echo "== paper figure shapes =="
# The §7 shapes (EV rolls back the fewest commands, TL <= JiT <= FCFS,
# ...) asserted on the rows `repro bench` reports; timings are not the
# gate, so pytest-benchmark only runs each sweep once.
if "$PY" -c "import pytest_benchmark" >/dev/null 2>&1; then
    "$PY" -m pytest -q -p no:cacheprovider --benchmark-disable \
        benchmarks/bench_*.py
else
    echo "(pytest-benchmark not installed; figure shapes NOT checked)"
fi

echo
echo "== perf ledger gate (its tests + all workloads traced/untraced) =="
./perf_ledger/check.sh

echo
echo "== lint =="
if "$PY" -m ruff --version >/dev/null 2>&1; then
    "$PY" -m ruff check src tests benchmarks examples scripts
elif command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks examples scripts
elif "$PY" -m pyflakes --version >/dev/null 2>&1; then
    "$PY" -m pyflakes src/repro tests benchmarks examples
else
    echo "(ruff/pyflakes not installed; falling back to compileall)"
    "$PY" -m compileall -q src tests benchmarks examples
fi
echo "lint OK"

echo
echo "All checks passed."
