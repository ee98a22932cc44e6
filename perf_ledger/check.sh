#!/usr/bin/env bash
# The ledger's own gate: its tests, then a small pass over all seven
# workloads with and without tracing.  Exits non-zero on any
# hard-check failure.  Ready to be called from scripts/check.sh or CI.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 -m pytest perf_ledger/tests -q -p no:cacheprovider

mkdir -p perf_ledger/out
python3 perf_ledger/run.py --scale 0.05 --seconds 0.05 \
    --trace --json perf_ledger/out/check.json > perf_ledger/out/check.txt \
    || { cat perf_ledger/out/check.txt; exit 1; }
grep -c "digest" perf_ledger/out/check.txt \
    | xargs -I{} echo "perf_ledger: {} workload runs passed their hard checks"
