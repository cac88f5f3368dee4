# Convenience targets for the QuEST reproduction. `make test` (go test ./...)
# is the whole gate: besides the unit tests it runs the analyzer suite
# (TestModuleClean) and the CLIs' end-to-end artifact checks.
#
#   make lint         gofmt + go vet + TestModuleClean (CI also runs staticcheck)
#   make perf-smoke   run questperf (bench/run.sh) briefly over every workload,
#                     both phases, and fail unless it reports every run
#                     correct (stdout and ledger digests match bench/golden.json)
#                     and no trace replica diverged; no timing bound

GO ?= go

# GO_TOOLCHAIN mirrors go.mod's `toolchain` directive; TestToolchainVersionsAgree
# fails if the two (or CI's version matrix) drift apart.
GO_TOOLCHAIN := go1.24.0

.PHONY: all build test test-short race bench perf-smoke lint vet fmt experiments examples fuzz clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# The analyzer suite (internal/lint): detrange, seedsrc and errsink, each
# run package by package over the module. TestModuleClean wants no finding
# and pins the //quest:allow count; `go test ./...` runs it too.
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) test -run TestModuleClean ./internal/lint/questvet

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over everything, including the Monte-Carlo worker pool
# and its per-worker metrics shards (see internal/mc and internal/metrics).
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Benchmark correctness smoke — the same check CI's perf-smoke job runs. One
# short questperf pass (-seconds 1) over every workload and both phases:
# questperf compares each run's stdout and ledger digests with
# bench/golden.json, and the traced phase replays each workload in process
# through the public APIs the replicas call. questperf exits 0 even when a
# check fails, so the recipe reads its verdict itself: the last stdout line
# must carry "correct":true and "failed":0, and stderr must have no
# "trace replica diverged". Timings are not checked. Artifacts match
# perf-smoke.*, covered by .gitignore and `make clean`.
perf-smoke:
	bash bench/run.sh -seconds 1 > perf-smoke.out 2> perf-smoke.err || { cat perf-smoke.err; exit 1; }
	@cat perf-smoke.err
	@tail -n 1 perf-smoke.out
	@tail -n 1 perf-smoke.out | grep -q '"correct":true' || { echo "perf-smoke: questperf reports correct=false"; exit 1; }
	@tail -n 1 perf-smoke.out | grep -q '"failed":0,' || { echo "perf-smoke: questperf reports failed runs"; exit 1; }
	@! grep -q 'trace replica diverged' perf-smoke.err || { echo "perf-smoke: a trace replica diverged"; exit 1; }

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/questbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/shor_scaling
	$(GO) run ./examples/logical_cnot
	$(GO) run ./examples/tfactory
	$(GO) run ./examples/threshold
	$(GO) run ./examples/workload_report
	$(GO) run ./examples/host_pipeline
	$(GO) run ./examples/algorithms

# Brief fuzzing sessions over the wire formats and the run path behind
# them (`questasm run`).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/qasm/
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/qexe/
	$(GO) test -fuzz FuzzRunExecutable -fuzztime 30s ./internal/core/

# Remove only *untracked* files under the fuzz corpora directories (fuzzing
# drops new inputs there) plus build artifacts. An earlier version ran
# `rm -rf` on the whole testdata trees, which deleted the committed seed
# corpora; TestCleanTargetPreservesTrackedTestdata pins the fix.
clean:
	git clean -fdx internal/qasm/testdata internal/qexe/testdata internal/core/testdata
	rm -f perf-smoke.*
	$(GO) clean ./...
