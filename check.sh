#!/bin/sh
# Tier-2 verification gate: build, standard vet, the repo-specific caer-vet
# static analysis suite, and the race-enabled test run. CI runs exactly
# this; `make check` is an alias.
set -eux

go build ./...
go vet ./...
# The repository benchmark is its own module (benchmark/go.mod), which the
# root ./... does not see: vet it and run its smoke test here.
(cd benchmark && go vet ./... && go test ./...)
# caer-vet with suppression hygiene on (stale //caer:allow comments are
# findings in CI) and a wall-clock budget: the analysis suite must stay
# cheap enough to run on every push (CAER_VET_BUDGET seconds, default 120).
vet_start=$(date +%s)
go run ./cmd/caer-vet -unused-suppressions ./...
vet_elapsed=$(( $(date +%s) - vet_start ))
echo "caer-vet runtime: ${vet_elapsed}s (budget ${CAER_VET_BUDGET:-120}s)"
[ "$vet_elapsed" -le "${CAER_VET_BUDGET:-120}" ] || {
    echo "caer-vet budget: ${vet_elapsed}s exceeds CAER_VET_BUDGET=${CAER_VET_BUDGET:-120}s" >&2; exit 1; }
# -timeout: the experiments race suite (regime suites + SLO battery) runs
# past the 600s per-binary default.
go test -race -timeout 30m -coverprofile=coverage.out ./...
# Coverage ratchet: total statement coverage must not fall below
# CAER_COVERAGE_MIN (default 80.3, one point under the measured baseline —
# raise it as coverage grows, never lower it to absorb a regression).
total=$(go tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
awk -v t="$total" -v min="${CAER_COVERAGE_MIN:-80.3}" 'BEGIN { exit !(t+0 >= min+0) }' || {
    echo "coverage gate: total $total% below CAER_COVERAGE_MIN=${CAER_COVERAGE_MIN:-80.3}%" >&2; exit 1; }
# Fuzz smoke: run each parser fuzz target briefly so the checked-in seed
# corpus and any new corpus entries actually execute against the invariants
# (go's fuzzer accepts one target per invocation).
go test -run='^$' -fuzz='^FuzzParseText$' -fuzztime=10s ./internal/telemetry
go test -run='^$' -fuzz='^FuzzParseSeries$' -fuzztime=10s ./internal/telemetry
go test -run='^$' -fuzz='^FuzzParseChromeTrace$' -fuzztime=10s ./internal/trace
# Resize-path fuzz smoke: random partition op sequences (lookups, fills,
# orphan/invalidate resizes, back-invalidations) against the model checker
# in cache_test — fills stay inside the owner's mask, counts balance, and
# every resident line stays hittable.
go test -run='^$' -fuzz='^FuzzCachePartition$' -fuzztime=10s ./internal/mem
# Chaos gate: the fault-injection regimes (DESIGN.md §8) in short mode —
# every fault class must fail open under every heuristic.
go run ./cmd/caer-bench -chaos -quick > /dev/null
# Sampling gate: the detection-latency-vs-overhead sweep (DESIGN.md §13)
# in short mode — the event-driven modes must flag every contention burst
# the poller flags, with no false flags, at strictly fewer probes.
go run ./cmd/caer-bench -sampling -quick > /dev/null
rm -f BENCH_sampling.json
# Scheduler gate: the placement regimes (DESIGN.md §9) in short mode —
# contention-aware placement must beat round-robin at equal throughput
# (asserted by the experiments suite test; this exercises the artifact path).
# -telemetry-out doubles as the telemetry smoke: the run must leave a
# Prometheus snapshot whose core metric families are present and non-empty.
go run ./cmd/caer-bench -sched -quick -telemetry-out TELEMETRY_snapshot.txt > /dev/null
rm -f BENCH_sched.json
# Fleet gate: the cluster-level placement regimes (DESIGN.md §14) in short
# mode — least-pressure cross-machine placement must strictly beat
# round-robin on the sensitive service's p99 request latency at equal
# admitted throughput, and the BENCH_fleet.json artifact must be written.
go run ./cmd/caer-bench -fleet -quick > /dev/null
test -s BENCH_fleet.json
rm -f BENCH_fleet.json
# Partition gate: the cache-partitioning response regimes (DESIGN.md §16)
# in short mode — way-partitioning must strictly beat pure throttling on
# the latency app's QoS at equal admitted throughput with a no-later batch
# makespan, and the BENCH_partition.json artifact must be byte-identical
# across domain-stepper worker counts (the determinism contract).
go run ./cmd/caer-bench -partition -quick -workers 1 > /dev/null
test -s BENCH_partition.json
mv BENCH_partition.json BENCH_partition.w1.json
go run ./cmd/caer-bench -partition -quick -workers 4 > /dev/null
cmp BENCH_partition.json BENCH_partition.w1.json
rm -f BENCH_partition.json BENCH_partition.w1.json
# SLO gate (DESIGN.md §15) in short mode: metrics-fed placement must match
# or beat least-pressure on the sensitive p99 at equal throughput, a total
# scrape outage must degrade to least-pressure byte-for-byte, and the alert
# battery's seeded monitor outages must each fire exactly one burn-rate
# alert with zero false positives. The run leaves BENCH_slo.json plus the
# doctor bundle (SLO_*.json).
go run ./cmd/caer-bench -slo -quick > /dev/null
test -s BENCH_slo.json
# Doctor smoke: the offline replay over the bundle must name the seeded
# violation class and count all three episodes.
go run ./cmd/caer-doctor -dir . > DOCTOR_out.txt
grep -q "degraded-budget firing" DOCTOR_out.txt || {
    echo "doctor smoke: seeded degraded-budget violation not named" >&2; exit 1; }
grep -q "diagnosis: 3 SLO violation" DOCTOR_out.txt || {
    echo "doctor smoke: expected 3 diagnosed violations" >&2; exit 1; }
rm -f BENCH_slo.json SLO_series.json SLO_events.json SLO_trace.json \
      SLO_objectives.json DOCTOR_out.txt
for fam in caer_pmu_reads_total caer_comm_publishes_total \
           caer_engine_ticks_total caer_engine_verdicts_total \
           caer_sched_admissions_total caer_telemetry_ops_total; do
    grep -q "^$fam" TELEMETRY_snapshot.txt || {
        echo "telemetry smoke: metric family $fam missing" >&2; exit 1; }
    awk -v fam="$fam" '$1 ~ "^"fam"($|{)" { sum += $NF } END { exit !(sum > 0) }' \
        TELEMETRY_snapshot.txt || {
        echo "telemetry smoke: metric family $fam is empty" >&2; exit 1; }
done
rm -f TELEMETRY_snapshot.txt
