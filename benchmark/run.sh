#!/usr/bin/env bash
# CI and pipeline wrapper: build once, measure and trace every workload,
# compare against the last history line measured on this host, then append
# the result to the trajectory. Exits with the comparison's status: 1 when an
# end-to-end metric regressed or more checks failed, so the caller decides
# whether that gates.
#
#   benchmark/run.sh [seed]
#
# To compare two commits instead, keep the JSON each run leaves in
# benchmark/out/ and call: bench.sh -compare old.json new.json
set -euo pipefail

seed="${1:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/benchmark/out"
history="$root/benchmark/history.jsonl"
mkdir -p "$out"

BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
result="$out/result_${BENCH_COMMIT}_seed${seed}.json"

# bench.sh builds; the comparison below reuses the binary it left.
bash "$root/benchmark/bench.sh" -seed "$seed" -trace 1 -out "$result"

status=0
(cd "$root" && .bench_build/caer-benchmark -compare "$history" "$result") || status=$?
cat "$result" >> "$history"
echo "appended $(basename "$result") to benchmark/history.jsonl"
exit "$status"
