# Tier-1: the fast correctness gate (what every PR must keep green).
.PHONY: test
test:
	go build ./...
	go test ./...

# Tier-2: build + go vet + repo-specific static analysis + race tests.
.PHONY: check
check:
	./check.sh

# Run only the repo-specific analyzers (suppression hygiene on, as in CI).
.PHONY: vet
vet:
	go run ./cmd/caer-vet -unused-suppressions ./...

# Machine-readable findings (the caer-vet -json contract; CI uploads this).
.PHONY: vet-json
vet-json:
	go run ./cmd/caer-vet -unused-suppressions -json ./...

.PHONY: bench
bench:
	go test -bench=. -benchmem ./...

# The two numbers a simplicity PR reports: non-test Go lines in tracked
# files outside benchmark/ and testdata/, and the exported fields of the
# configuration structs (each one an independently settable knob).
KNOBS = caer.Config sched.Config sched.ClusterConfig fleet.Config fleet.SLOConfig runner.Scenario machine.Config
.PHONY: loc
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs cat | wc -l | \
		awk '{ print "non-test Go lines:", $$1 }'
	@total=0; for t in $(KNOBS); do \
		n=$$(go doc ./internal/$$t | awk '/^type .* struct \{/ { s = 1; next } s && /^}/ { exit } \
			s && /^\t[A-Z]/ { n++; for (i = 1; i < NF && $$i ~ /,$$/; i++) n++ } END { print n + 0 }'); \
		echo "exported fields of $$t: $$n"; total=$$((total + n)); \
	done; echo "exported config fields: $$total"
