# Convenience targets for the QuEST reproduction.
#
# Observability / CI targets:
#   make trace-smoke  run a tiny traced sim and validate the Perfetto JSON,
#                     then CPU-profile a small sweep and read the profile
#                     back with go tool pprof
#   make ledger-smoke run a small ledgered+heatmapped sweep at -workers 1
#                     and 4, cmp the ledgers and heatmaps, and validate the
#                     JSONL with questcheck
#   make bw-smoke     run profiled sweeps and sims, validate the quest-bw/1
#                     artifacts with bwreport, prove the waveform and the
#                     ledger are worker-count independent (cmp across
#                     -workers 1 and 8) and the profile a pure side-band
#                     (ledger bytes identical with -bw on/off), and render
#                     the ram/fifo/unitcell comparison
#   make perf-smoke   run questperf (bench/run.sh) briefly over every workload,
#                     both phases, and fail unless it reports every run
#                     correct (stdout and ledger digests match bench/golden.json)
#                     and no trace replica diverged; no timing bound
#   make lint         gofmt + vet + questvet (CI additionally runs staticcheck)
#   make questvet     run only the custom analyzer suite (tools/questvet),
#                     diffed against the committed questvet-baseline.json
#   make questvet-baseline
#                     regenerate questvet-baseline.json after a deliberate
#                     change (new //quest:allow, accepted finding)

GO ?= go

# GO_TOOLCHAIN mirrors go.mod's `toolchain` directive; TestToolchainVersionsAgree
# fails if the two (or CI's version matrix) drift apart.
GO_TOOLCHAIN := go1.24.0

.PHONY: all build test test-short race bench trace-smoke ledger-smoke bw-smoke perf-smoke lint vet fmt questvet questvet-baseline experiments examples fuzz clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

lint: vet questvet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Custom analyzer suite (internal/lint): detrange, seedsrc and errsink,
# each run package by package. The run is diffed against the committed
# baseline: only new findings, stale baseline entries, or //quest:allow
# count drift fail. The summary line counts the suppressions in force.
questvet:
	$(GO) run ./tools/questvet -baseline questvet-baseline.json ./...

# Regenerate the committed questvet baseline after a *deliberate* change
# (a new reasoned //quest:allow, an accepted finding). Explain the bump in
# the PR; TestModuleCleanAgainstBaseline keeps the file honest.
questvet-baseline:
	$(GO) run ./tools/questvet -write-baseline questvet-baseline.json ./...

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

# Run a tiny traced simulation and validate the emitted Perfetto JSON, then
# CPU-profile a small threshold sweep (-cpuprofile) and read the profile
# back with go tool pprof, the one reader of that format — the same checks
# CI's trace-smoke job runs. trace.json and cpu.pprof are covered by
# .gitignore and `make clean`.
trace-smoke:
	$(GO) run ./cmd/questsim -program distill -replays 5 -trace trace.json
	$(GO) run ./tools/questcheck -min-procs 4 trace.json
	$(GO) run ./cmd/questbench -cpuprofile cpu.pprof -trials 200 threshold
	$(GO) tool pprof -top cpu.pprof

# Run a small traced + ledgered threshold sweep with heatmaps at -workers 1
# and again at -workers 4, cmp the two ledgers and the two heatmap JSONs,
# then validate the ledger — the same check CI's trace-smoke job runs. At
# 130 trials each cell is three 64-trial lanes, so 4 workers really split
# it. questcheck's floors are exact: 6 cells of 130 trial records. Its five
# outputs are covered by .gitignore and `make clean`.
ledger-smoke:
	$(GO) run ./cmd/questbench -trials 130 -workers 1 \
		-ledger ledger.jsonl -heatmap heatmap.json \
		-trace sweep_trace.json threshold
	$(GO) run ./cmd/questbench -trials 130 -workers 4 \
		-ledger ledger-w4.jsonl -heatmap heatmap-w4.json threshold
	cmp ledger.jsonl ledger-w4.jsonl
	cmp heatmap.json heatmap-w4.json
	$(GO) run ./tools/questcheck -min-cells 6 -min-trials 780 ledger.jsonl

# Bandwidth-profiler smoke — the same checks CI's bw-smoke job runs. The
# memory experiment drives the full machine decode path (threshold cells
# bypass the machine, so they put no traffic on the buses): the same
# profiled sweep at -workers 1 and 8 must produce byte-identical quest-bw/1
# waveforms and ledgers (cmp) — at 130 trials, three 64-trial lanes, so 8
# workers really split each cell — and the -workers 1 ledger must be
# byte-identical with -bw on and off (profiling is a pure side-band). The
# ledger cmp across -workers 1 and 8 is the end-to-end check that ledger
# bytes do not depend on the worker count. bwreport validates and renders
# the -workers 1 artifact, then three questsim runs — one per microcode
# design — feed the ram/fifo/unitcell comparison table. Artifacts match
# bw-smoke-*.jsonl, covered by .gitignore and `make clean`.
bw-smoke:
	$(GO) run ./cmd/questbench -trials 130 -workers 1 \
		-ledger bw-smoke-ledger-on.jsonl -bw bw-smoke-w1.jsonl memory
	$(GO) run ./cmd/questbench -trials 130 -workers 8 \
		-ledger bw-smoke-ledger-w8.jsonl -bw bw-smoke-w8.jsonl memory
	cmp bw-smoke-w1.jsonl bw-smoke-w8.jsonl
	cmp bw-smoke-ledger-w8.jsonl bw-smoke-ledger-on.jsonl
	$(GO) run ./cmd/questbench -trials 130 -workers 1 \
		-ledger bw-smoke-ledger-off.jsonl memory
	cmp bw-smoke-ledger-off.jsonl bw-smoke-ledger-on.jsonl
	$(GO) run ./tools/bwreport bw-smoke-w1.jsonl
	$(GO) run ./cmd/questsim -program distill -replays 8 -design ram \
		-bw bw-smoke-ram.jsonl
	$(GO) run ./cmd/questsim -program distill -replays 8 -design fifo \
		-bw bw-smoke-fifo.jsonl
	$(GO) run ./cmd/questsim -program distill -replays 8 -design unitcell \
		-bw bw-smoke-unitcell.jsonl
	$(GO) run ./tools/bwreport bw-smoke-ram.jsonl bw-smoke-fifo.jsonl \
		bw-smoke-unitcell.jsonl

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
	rm -f bw-smoke-*.jsonl perf-smoke.* cpu.pprof trace.json ledger.jsonl ledger-w4.jsonl heatmap.json heatmap-w4.json sweep_trace.json
	$(GO) clean ./...
