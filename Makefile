# Developer entry points. `make lint` runs the exact sequence the CI
# lint job runs; `make ci` reproduces the whole pipeline locally.

# Pinned external linter versions — keep in lockstep with
# .github/workflows/ci.yml.
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all build test race cover lint fmt-check vet paylint lint-fixtures staticcheck govulncheck perfbench-test fuzz-smoke bench-smoke bench-wire loadgen-smoke ci

all: build test

build:
	go build ./...

test:
	go test ./...

# perfbench is a nested module, so `go vet ./...` and `go test ./...`
# at the root never compile it; this builds and smoke-tests it against
# the current checkout.
perfbench-test:
	cd perfbench && go vet ./... && go test ./...

race:
	go test -race ./internal/experiments/ ./internal/sim/ ./internal/selection/ ./internal/server/ ./internal/engine/ ./internal/client/ ./internal/incentive/ ./internal/mobility/ ./cmd/loadgen/

# Aggregate coverage across every package, with a function summary.
cover:
	go test -coverprofile=coverage.out -covermode=atomic ./...
	go tool cover -func=coverage.out | tail -n 1

# The full static-analysis gate: formatting, go vet, the repo's own
# paylint suite (determinism + aliasing invariants), staticcheck, and
# govulncheck — one command, matching CI exactly.
lint: fmt-check vet paylint staticcheck govulncheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	go vet ./...

paylint:
	go run ./cmd/paylint ./...

# The analyzer suite's own regression tests: every analyzer against its
# seeded-violation fixtures under internal/analysis/testdata/src, plus
# the CFG/dataflow unit tests. Fast enough to run on every analyzer
# change without waiting for the whole-repo gate.
lint-fixtures:
	go test ./internal/analysis/... ./cmd/paylint/

# staticcheck and govulncheck are external tools; install the pinned
# versions once with `make lint-tools` (needs network access).
staticcheck:
	@command -v staticcheck >/dev/null || { \
		echo "staticcheck not installed; run: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)" >&2; exit 1; }
	staticcheck ./...

govulncheck:
	@command -v govulncheck >/dev/null || { \
		echo "govulncheck not installed; run: go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)" >&2; exit 1; }
	govulncheck ./...

.PHONY: lint-tools
lint-tools:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

fuzz-smoke:
	go test -run FuzzSolverEquivalence -fuzz FuzzSolverEquivalence -fuzztime 30s ./internal/selection/
	go test -run FuzzBinaryRoundTrip -fuzz FuzzBinaryRoundTrip -fuzztime 15s ./internal/wire/binary/
	go test -run FuzzBinaryDecodeHardened -fuzz FuzzBinaryDecodeHardened -fuzztime 15s ./internal/wire/binary/

# A short closed-loop run against a self-hosted platform in each codec:
# at least one round must complete with zero protocol errors (the
# TestLoadgenSmoke gate, runnable standalone too).
loadgen-smoke:
	go run ./cmd/loadgen -workers 25 -tasks 10 -codec json -duration 2s -min-rounds 3 -advance-after 100ms
	go run ./cmd/loadgen -workers 25 -tasks 10 -codec tlv -duration 2s -min-rounds 3 -advance-after 100ms

# Runs every benchmark once, including BenchmarkBeam (the dispatch-tuning
# grid recorded in BENCH_beam.json).
bench-smoke:
	go test -run xxx -bench . -benchtime 1x -benchmem ./internal/selection/ ./internal/sim/ ./internal/experiments/ ./internal/engine/ ./internal/wire/binary/

# The wire-codec grid at recording fidelity; the numbers at the repo root
# (BENCH_wire.json) came from this command plus a pair of loadgen runs.
bench-wire:
	go test -run xxx -bench . -benchtime 1000x -benchmem ./internal/wire/binary/

ci: lint build test perfbench-test race fuzz-smoke bench-smoke loadgen-smoke
