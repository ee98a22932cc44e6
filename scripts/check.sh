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
# A run walks its routine's compiled command DAG on counters, and EV's
# parallel pump wakes only the runs blocked on a released device: both
# equal the per-run edge-set DAG and the full-scan pump they replaced
# (drawn command lists and walks; EV-parallel micro homes).
REPRO_HYPOTHESIS_EXAMPLES=100 "$PY" -m pytest -q -p no:cacheprovider \
    --hypothesis-seed=36 tests/test_plan_equivalence.py
echo "counter plans and the indexed pump equal their reference definitions"
# A routine's compiled footprint equals the per-view derivations it
# replaced, over drawn contiguous command lists; reading every view
# writes nothing but the declared fields.
REPRO_HYPOTHESIS_EXAMPLES=200 "$PY" -m pytest -q -p no:cacheprovider \
    --hypothesis-seed=42 tests/test_routine_footprint.py
echo "the compiled routine footprint equals its reference derivations"
# A settled run's packed history equals the live records it held, and
# a device's columnar write log the tuple list it replaced: seeded micro
# homes x five models x both plans, with failures, OCC retries, reads
# and a hub crash + recover(); nothing a finished run reaches is a plan,
# a live execution record or a per-write tuple.
REPRO_HYPOTHESIS_EXAMPLES=200 "$PY" -m pytest -q -p no:cacheprovider \
    --hypothesis-seed=43 tests/test_packed_history.py
echo "packed run histories and columnar write logs equal the live records"
# Every model that promises serializability keeps it: 200 seeded micro
# homes x {gsv, psv, occ, ev/timeline, ev/jit} x both plans, every run
# judged by the oracle; under EV neither the retained order nor the
# closure may outlive the run (2000 cells, ~90 s).
"$PY" scripts/check_serializable.py

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
# Any interleaving of invoke/cancel/failure/run/crash+recover/migrate/serve/
# close+fsck leaves a log whose replayed twin matches the live hub, a
# checkpoint digest equal to the one from empty caches, no abort as
# cancelled outside the invocations a cancel named, and an oracle-clean
# end.
REPRO_HYPOTHESIS_EXAMPLES=200 "$PY" -m pytest -q -p no:cacheprovider \
    --hypothesis-seed=18 tests/test_hub_machine.py
echo "hub state machine: 200 interleavings replay-equal and oracle-clean"
# Incremental checkpoint digests equal the from-scratch tree digest and
# record frames their plain definition (deeper example budget than
# tier-1, seed pinned), and a healthy log still has the committed bytes.
REPRO_HYPOTHESIS_EXAMPLES=100 "$PY" -m pytest -q -p no:cacheprovider \
    --hypothesis-seed=15 tests/test_checkpoint_equivalence.py
"$PY" scripts/gen_wal_golden.py --check
echo "checkpoint digests equal their reference definition"
# The observation fold (marshal rows, one call per batch, per-entry
# repr fallback) equals the one-entry-at-a-time reference whatever the
# flush points, and seeded homes seal what the record-per-observation
# log would have (deeper example budget than tier-1, seed pinned).
REPRO_HYPOTHESIS_EXAMPLES=200 "$PY" -m pytest -q -p no:cacheprovider \
    --hypothesis-seed=37 tests/test_observation_digest.py
echo "the observation fold equals its reference definition"
# Every registered sweep (figures, ablations, the other sweeps) still
# reports the committed rows (tier-1 skips Fig 13; this runs all 18).
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
# ...) asserted on the rows the registered sweeps report; timings are
# not the gate (the perf ledger below is).
"$PY" -m pytest -q -p no:cacheprovider benchmarks/bench_*.py

echo
echo "== perf ledger gate (its tests + all workloads traced/untraced) =="
./perf_ledger/check.sh

echo
echo "== one door: only the hub advances a simulator =="
# SafeHome.pump is the one journaled way a hub advances (a served slice
# included); a module calling sim.run( itself would be a second,
# unjournaled path.
doors="$(grep -rl --include='*.py' 'sim\.run(' src/repro | grep -vx \
    -e src/repro/sim/engine.py -e src/repro/hub/safehome.py || true)"
[ -z "$doors" ] || { echo "sim.run( outside the hub: $doors"; exit 1; }
echo "one door OK"

echo
echo "== one clock: only the real-time pacer and Fig 15d read a clock =="
# The hub is deterministic in virtual time; wall-clock measurement is
# the perf ledger's.  The serve pacer (and its load generator) runs in
# real time and Fig 15d is a CPU-time figure; nothing else may time.
clocks="$(grep -rlE --include='*.py' \
    'perf_counter|monotonic|time\.time\(|process_time' src/repro | grep -vx \
    -e src/repro/serve/pacing.py \
    -e src/repro/serve/loadgen.py -e src/repro/experiments/figures.py \
    || true)"
[ -z "$clocks" ] || { echo "clock read outside the pacer: $clocks"; exit 1; }
echo "one clock OK"

echo
echo "== source size: lines of src/repro/**/*.py (reported, not gated) =="
find src/repro -name '*.py' -print0 | xargs -0 cat | wc -l

echo
echo "== import floor: peak RSS MB of a fresh interpreter after importing repro (reported, not gated) =="
# The packages tests/test_import_floor.py imports; that test is the gate
# (which modules stay unloaded), this is the number.
"$PY" -c 'import resource, repro, repro.fleet, repro.serve, repro.hub.durability, repro.metrics
print(round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1))'

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
