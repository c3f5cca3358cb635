#!/bin/sh
# Tier-2 verification gate: build, standard vet, the gofmt gate, the
# repo-specific caer-vet static analysis suite, a timed tier-1 test run,
# the race-enabled test run, and the regime gates.
# CI runs exactly this (.github/workflows/ci.yml calls it and uploads what
# it leaves behind: out/, coverage.out, caer-vet.json); `make check` is an
# alias.
set -eux

mkdir -p out/w1

go build ./...
go vet ./...
# Format gate over tracked files only (so the benchmark's .bench_build/
# checkouts are not walked): directives in doc comments are gofmt-shaped,
# and nothing else would notice a misformatted one.
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
[ -z "$unformatted" ] || {
    echo "gofmt gate: not gofmt-clean:" >&2; echo "$unformatted" >&2; exit 1; }
# 64-bit atomic alignment gate: the typed atomic.Int64/Uint64 align
# themselves on every platform, but the package-level functions
# (atomic.AddUint64(&s.f, 1) and friends) need an 8-byte-aligned operand,
# which 32-bit platforms do not guarantee for a struct field. Use the types.
untyped=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '/testdata/' |
    xargs grep -nE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int|Uint)64\(' || true)
[ -z "$untyped" ] || {
    echo "atomic gate: use atomic.Int64/Uint64:" >&2; echo "$untyped" >&2; exit 1; }
# The repository benchmark is its own module (benchmark/go.mod), which the
# root ./... does not see: vet it and run its smoke test here.
(cd benchmark && go vet ./... && go test ./...)
# Claims ledger: every test EXPERIMENTS.md's ledger names must exist, so a
# rename cannot leave a claim pointing at nothing. A cell reads
# `./PKG:TestName`, checked against `go test -list`; a `TestRegimes/<row>`
# subtest is one row of experiments.Regimes, whose names are caer-bench's
# suite flags.
ledger=$(sed -n '/^## Claims ledger/,/^## [^C]/p' EXPERIMENTS.md |
    grep -o '`\./[^`]*:Test[^`]*`' | tr -d '`' | sort -u)
[ -n "$ledger" ] || { echo "claims ledger: no asserting tests found" >&2; exit 1; }
bench_flags=$(go run ./cmd/caer-bench -h 2>&1 || true)
for ref in $ledger; do
    pkg=${ref%%:*} name=${ref#*:}
    top=${name%%/*}
    go test -list "^${top}\$" "$pkg" | grep -qx "$top" || {
        echo "claims ledger: $pkg has no test $top" >&2; exit 1; }
    [ "$top" = "$name" ] || echo "$bench_flags" | grep -qx "  -${name#*/}" || {
        echo "claims ledger: $top has no row ${name#*/}" >&2; exit 1; }
done
# DESIGN.md citations: every `DESIGN §N` / `DESIGN.md §N` in a tracked Go,
# Markdown, shell or workflow file must name one of DESIGN.md's `## N.`
# sections, so renumbering or cutting a section cannot leave a pointer to
# nothing.
sections=" $(sed -n 's/^## \([0-9][0-9]*\)\. .*/\1/p' DESIGN.md | tr '\n' ' ')"
dangling=$(git ls-files -z '*.go' '*.md' '*.sh' '*.yml' |
    xargs -0 grep -noE 'DESIGN(\.md)? §[0-9]+' |
    awk -v s="$sections" '{ n = $0; sub(/.*§/, "", n); if (!index(s, " " n " ")) print }')
[ -z "$dangling" ] || {
    echo "DESIGN.md citations name no section:" >&2; echo "$dangling" >&2; exit 1; }
# caer-vet with directive hygiene on (stale //caer:allow comments,
# redundant //caer:hot roots and unreached barriers are findings in CI)
# and a wall-clock budget: the analysis suite must stay
# cheap enough to run on every push (CAER_VET_BUDGET seconds, default 15).
# It loads through one `go list -export` call and takes the standard
# library from export data, about 0.5 s warm (`go build ./...` above warms
# the cache); type-checking the standard library from GOROOT source again
# would cost ~5 s and more on a slower host, so a slide back fails here.
# The -json run comes first so the machine-readable findings exist for CI
# to upload even when the gating run below fails.
go run ./cmd/caer-vet -unused-suppressions -json ./... > caer-vet.json || true
vet_start=$(date +%s)
go run ./cmd/caer-vet -unused-suppressions ./...
vet_elapsed=$(( $(date +%s) - vet_start ))
echo "caer-vet runtime: ${vet_elapsed}s (budget ${CAER_VET_BUDGET:-15}s)"
[ "$vet_elapsed" -le "${CAER_VET_BUDGET:-15}" ] || {
    echo "caer-vet budget: ${vet_elapsed}s exceeds CAER_VET_BUDGET=${CAER_VET_BUDGET:-15}s" >&2; exit 1; }
# Tier-1 wall-clock as a number: the plain `go test -count=1 ./...` run,
# timed whole, with go's per-package times in out/TIER1_times.txt. Over
# 60 s is a warning, not a failure: the ceiling is a goal for the 2-vCPU
# class, and a loaded host is not a regression.
tier1_start=$(date +%s)
go test -count=1 ./... > out/TIER1_times.txt || { cat out/TIER1_times.txt; exit 1; }
tier1_elapsed=$(( $(date +%s) - tier1_start ))
echo "total ${tier1_elapsed}s" >> out/TIER1_times.txt
echo "tier-1 wall-clock: ${tier1_elapsed}s (ceiling 60s)"
[ "$tier1_elapsed" -le 60 ] ||
    echo "tier-1 warning: go test ./... took ${tier1_elapsed}s, over the 60s ceiling" >&2
# Size as numbers, beside the tier-1 time: non-test Go lines and exported
# configuration fields (`make loc`).
make -s loc > out/LOC.txt
cat out/LOC.txt
# Knob ratchet: every exported config field needs a caller that sets it to
# something other than its default; a value nobody varies is a constant.
# Lower the 52 as knobs go; a new field raises it only together with a
# caller that varies it.
knobs=$(awk '/^exported config fields:/ { print $NF }' out/LOC.txt)
[ "$knobs" -le 52 ] || {
    echo "knob ratchet: $knobs exported config fields, over 52" >&2; exit 1; }
# -timeout: two race binaries run past the 600s per-binary default: the
# experiments suite (regime suites + SLO battery) and internal/fleet (872 s
# under -race at the last measurement).
go test -race -timeout 30m -coverprofile=coverage.out ./...
# Coverage ratchet: total statement coverage must not fall below
# CAER_COVERAGE_MIN (default 88.6, one point under the measured baseline —
# raise it as coverage grows, never lower it to absorb a regression).
total=$(go tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
awk -v t="$total" -v min="${CAER_COVERAGE_MIN:-88.6}" 'BEGIN { exit !(t+0 >= min+0) }' || {
    echo "coverage gate: total $total% below CAER_COVERAGE_MIN=${CAER_COVERAGE_MIN:-88.6}%" >&2; exit 1; }
# No vacuous tests in the simulator, control-loop and comm-table packages:
# none of their tests is arch-, hardware- or short-gated (the one t.Skip
# left, mem's allocation budget, is race-only; comm's re-exec helper went
# with the mmap table), so a plain run that prints "--- SKIP" has a test
# whose assertions never execute.
go test -count=1 -v ./internal/runner ./internal/caer ./internal/comm ./internal/mem ./internal/machine ./internal/sched > out/SKIP_scan.txt
! grep -- '--- SKIP' out/SKIP_scan.txt || {
    echo "skip gate: the tests above skipped in a plain run" >&2; exit 1; }
# Fuzz smoke: run each parser fuzz target briefly so the checked-in seed
# corpus and any new corpus entries actually execute against the invariants
# (go's fuzzer accepts one target per invocation). Every smoke caps
# minimisation at 100 executions: the fuzzer minimises each new interesting
# input for up to 60 s by default, which ate most of the 10 s budget (the
# machine, hierarchy, ParseText and partition smokes ended at 0 execs/s);
# capped, each executes several times as many inputs.
go test -run='^$' -fuzz='^FuzzParseText$' -fuzztime=10s -fuzzminimizetime=100x ./internal/telemetry
go test -run='^$' -fuzz='^FuzzParseSeries$' -fuzztime=10s -fuzzminimizetime=100x ./internal/telemetry
go test -run='^$' -fuzz='^FuzzParseChromeTrace$' -fuzztime=10s -fuzzminimizetime=100x ./internal/telemetry
# Series differential fuzz smoke: random observe/sample/reset/registration
# sequences through telemetry.Series and the dense reference store in
# series_ref_test, compared on every window query and the dump bytes.
go test -run='^$' -fuzz='^FuzzSeriesSample$' -fuzztime=10s -fuzzminimizetime=100x ./internal/telemetry
# Resize-path fuzz smoke: random partition op sequences (lookups, fills,
# resizes, back-invalidations) against the model checker in fuzz_test —
# fills stay inside the owner's mask, a resize drops nothing, the valid
# bitmaps and LRU stamps stay well formed, and every resident line stays
# hittable.
go test -run='^$' -fuzz='^FuzzCachePartition$' -fuzztime=10s -fuzzminimizetime=100x ./internal/mem
# Cache-core differential fuzz smoke: random access/resize/flush sequences
# through mem.Hierarchy and the naive reference hierarchy in ref_test,
# compared after every step (results, stats, residency, inclusion,
# core-valid bits).
go test -run='^$' -fuzz='^FuzzHierarchy$' -fuzztime=10s -fuzzminimizetime=100x ./internal/mem
# Period-stepper differential fuzz smoke: random geometries and
# pause/divisor/bind/relaunch scripts stepped by the machine (one pass for
# uncontended domains) and by the all-sliced reference loop, compared after
# every period.
go test -run='^$' -fuzz='^FuzzMachinePeriod$' -fuzztime=10s -fuzzminimizetime=100x ./internal/machine
# Scrape-path benchmark smoke: one iteration each, so the writer, parser and
# collector benchmarks keep compiling and their allocs/op land in the CI log.
go test -run='^$' -bench='WritePrometheus|ParseText|ScrapeAll' -benchtime=1x ./internal/telemetry ./internal/fleet
# Machine-period benchmark smoke: the sliced and the one-pass period.
go test -run='^$' -bench='MachinePeriod' -benchtime=1x .
# Regime gates: the rows of experiments.Regimes (README "Regime suites") in
# short mode, one process. Each suite exits non-zero unless its claim
# holds; BENCH_*.json and the caer-doctor bundle land in out/ (overwritten
# per run). TestRegimes above already gates every row of the table; a new
# row's flag goes on this line to leave its artifact in out/ as well.
# -telemetry-out doubles as the telemetry smoke below.
go run ./cmd/caer-bench -chaos -sampling -sched -fleet -partition -slo -quick -csv out \
    -telemetry-out out/TELEMETRY_snapshot.txt > /dev/null
# Determinism contract at the artifact level: BENCH_fleet.json — the one
# stepper pool a fleet's machines share — must be byte-identical across
# worker counts (4 above, 1 here); TestRegimes pins the same for the slo
# row, which is ~20 s a run. No suite builds a machine's private pool: that
# one is pinned against serial stepping by internal/machine's
# TestParallelDomainsMatchSerial and TestBatchedPeriodsMatchSingle.
go run ./cmd/caer-bench -fleet -quick -workers 1 -csv out/w1 > /dev/null
cmp out/BENCH_fleet.json out/w1/BENCH_fleet.json
# Doctor smoke: the offline replay over the SLO suite's bundle must name the
# seeded violation class and count all three episodes.
go run ./cmd/caer-doctor -dir out > out/DOCTOR_out.txt
grep -q "degraded-budget firing" out/DOCTOR_out.txt || {
    echo "doctor smoke: seeded degraded-budget violation not named" >&2; exit 1; }
grep -q "diagnosis: 3 SLO violation" out/DOCTOR_out.txt || {
    echo "doctor smoke: expected 3 diagnosed violations" >&2; exit 1; }
# caer-run smoke, the single-machine front door: a CAER run's -trace-out is
# the span export and must carry the response's hold spans, and -log, which
# prints the tail of the same spans, must print a hold line; the folded
# series and suite-inspection commands must print a phase line and all 21
# profile rows.
go run ./cmd/caer-run -mode caer -latency mcf -log 8 -trace-out out/RUN_trace.json > out/RUN_log.txt
grep -q '"name":"hold"' out/RUN_trace.json || {
    echo "caer-run smoke: no hold span in out/RUN_trace.json" >&2; exit 1; }
grep -qE '^    p[0-9]+ hold ' out/RUN_log.txt || {
    echo "caer-run smoke: -log 8 printed no hold line (out/RUN_log.txt)" >&2; exit 1; }
go run ./cmd/caer-run -mode alone -series phases | grep -q "phase 0: periods" || {
    echo "caer-run smoke: -series phases printed no phase line" >&2; exit 1; }
rows=$(go run ./cmd/caer-run -workloads | grep -c '^[0-9][0-9][0-9]\.')
[ "$rows" -eq 21 ] || {
    echo "caer-run smoke: -workloads printed $rows profile rows, want 21" >&2; exit 1; }
# Telemetry smoke: the run must leave a Prometheus snapshot whose core
# metric families are present and non-empty.
for fam in caer_pmu_reads_total caer_comm_publishes_total \
           caer_engine_ticks_total caer_engine_verdicts_total \
           caer_sched_admissions_total caer_telemetry_ops_total; do
    grep -q "^$fam" out/TELEMETRY_snapshot.txt || {
        echo "telemetry smoke: metric family $fam missing" >&2; exit 1; }
    awk -v fam="$fam" '$1 ~ "^"fam"($|{)" { sum += $NF } END { exit !(sum > 0) }' \
        out/TELEMETRY_snapshot.txt || {
        echo "telemetry smoke: metric family $fam is empty" >&2; exit 1; }
done
# ...and the snapshot CI uploads must parse with the code the fleet scrapes
# with (go test runs in the package directory, hence the absolute path).
CAER_SNAPSHOT="$PWD/out/TELEMETRY_snapshot.txt" go test -run='^TestSnapshotFileParses$' -v ./internal/telemetry | tee out/TELEMETRY_parse.txt
grep -q '^--- PASS: TestSnapshotFileParses' out/TELEMETRY_parse.txt || {
    echo "telemetry smoke: out/TELEMETRY_snapshot.txt was not parsed" >&2; exit 1; }
