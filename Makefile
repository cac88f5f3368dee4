# Convenience targets for the QuEST reproduction.
#
# Observability / CI targets:
#   make bench-json   regenerate BENCH_PR13.json, the committed benchmark
#                     baseline tools/benchdiff compares CI runs against
#   make benchdiff    compare a fresh suite run against the committed baseline
#   make trace-smoke  run a tiny traced sim and validate the Perfetto JSON
#   make ledger-smoke run a small ledgered+heatmapped sweep and validate the
#                     JSONL with questcheck
#   make shard-smoke  prove process-count independence: 2-process sharded
#                     threshold and memory sweeps merged with ledgermerge,
#                     and runs resumed from truncated ledgers, must all be
#                     byte-identical (cmp) to the 1-process runs
#   make events-smoke run a 2-shard sweep streaming live quest-events/1
#                     telemetry, validate both streams and render the fleet
#                     view with questtop, and prove events are a pure
#                     side-band (ledger bytes identical with events on/off)
#   make bw-smoke     run profiled sweeps and sims, validate the quest-bw/1
#                     artifacts with bwreport, prove the waveform is
#                     worker-count independent (cmp across -workers 1 and 8)
#                     and a pure side-band (ledger bytes identical with -bw
#                     on/off), and render the ram/fifo/unitcell comparison
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

.PHONY: all build test test-short race bench bench-json benchdiff trace-smoke ledger-smoke shard-smoke events-smoke bw-smoke perf-smoke lint vet fmt questvet questvet-baseline experiments examples fuzz clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

lint: vet questvet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Custom analyzer suite (internal/lint): detrange, seedsrc, schemaver, plus
# the interprocedural hotalloc/gateflow/errsink analyzers over the
# whole-module call graph. The run is diffed against the committed baseline:
# only new findings, stale baseline entries, or //quest:allow count drift
# fail. The summary line counts the suppressions in force.
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
	$(GO) test -bench=. -benchmem ./...

# Regenerate the committed benchmark baseline (schema quest-bench/1; see
# internal/benchsuite). Run on a quiet machine; CI compares against this file.
bench-json:
	$(GO) run ./cmd/questbench -bench-json BENCH_PR13.json

# Compare a fresh suite run against the committed baseline (>30% ns/op fails).
benchdiff:
	$(GO) run ./cmd/questbench -bench-json /tmp/quest_bench_current.json
	$(GO) run ./tools/benchdiff BENCH_PR13.json /tmp/quest_bench_current.json

# Run a tiny traced simulation and validate the emitted Perfetto JSON —
# the same check CI's trace-smoke job runs.
trace-smoke:
	$(GO) run ./cmd/questsim -program distill -replays 5 -trace /tmp/quest_trace_smoke.json
	$(GO) run ./tools/questcheck -min-procs 4 /tmp/quest_trace_smoke.json

# Run a small traced + ledgered threshold sweep with CI early-stop and
# heatmaps, then validate the ledger — the same check CI's trace-smoke job
# runs. The experiment ledger and heatmap are worker-count independent.
ledger-smoke:
	$(GO) run ./cmd/questbench -trials 40 -workers 4 -ci-stop 0.2 \
		-ledger /tmp/quest_ledger_smoke.jsonl -heatmap /tmp/quest_heatmap_smoke.json \
		-trace /tmp/quest_sweep_trace.json threshold
	$(GO) run ./tools/questcheck -min-cells 6 -min-trials 60 /tmp/quest_ledger_smoke.jsonl

# Prove process-count independence end to end — the same checks CI's
# shard-smoke job runs, once per runner. A 2-process sharded sweep
# (deliberately run with different -workers per shard) is merged by
# tools/ledgermerge and cmp(1)'d byte-for-byte against the 1-process ledger;
# then the 1-process ledger is truncated mid-cell with a torn final line
# (what a crash leaves) and a -resume run must reconverge to the same bytes.
# Both sweeps run on mc.RunBatch, 64 trials per lane: each cut keeps the
# header, cell 0 (100 trials + summary) and 70 trials of cell 1, so the
# resumed cell's first lane starts past a 64-trial lane boundary. All
# artifacts match the ledger-shard-*.jsonl pattern covered by .gitignore and
# `make clean`.
shard-smoke:
	$(GO) run ./cmd/questbench -trials 100 -workers 4 -ledger ledger-shard-full.jsonl threshold
	$(GO) run ./cmd/questbench -trials 100 -workers 2 -shard 0/2 -ledger ledger-shard-0.jsonl threshold
	$(GO) run ./cmd/questbench -trials 100 -workers 3 -shard 1/2 -ledger ledger-shard-1.jsonl threshold
	$(GO) run ./tools/ledgermerge -o ledger-shard-merged.jsonl ledger-shard-0.jsonl ledger-shard-1.jsonl
	cmp ledger-shard-merged.jsonl ledger-shard-full.jsonl
	$(GO) run ./tools/questcheck -min-cells 6 -min-trials 600 ledger-shard-merged.jsonl
	head -n 172 ledger-shard-full.jsonl > ledger-shard-crash.jsonl
	printf '{"record":"trial","cell":"thr' >> ledger-shard-crash.jsonl
	$(GO) run ./cmd/questbench -trials 100 -workers 3 -resume ledger-shard-crash.jsonl \
		-ledger ledger-shard-resumed.jsonl threshold
	cmp ledger-shard-resumed.jsonl ledger-shard-full.jsonl
	$(GO) run ./tools/questcheck -min-cells 6 -min-trials 600 ledger-shard-resumed.jsonl
	$(GO) run ./cmd/questbench -trials 100 -workers 4 -ledger ledger-shard-mem-full.jsonl memory
	$(GO) run ./cmd/questbench -trials 100 -workers 2 -shard 0/2 -ledger ledger-shard-mem-0.jsonl memory
	$(GO) run ./cmd/questbench -trials 100 -workers 3 -shard 1/2 -ledger ledger-shard-mem-1.jsonl memory
	$(GO) run ./tools/ledgermerge -o ledger-shard-mem-merged.jsonl ledger-shard-mem-0.jsonl ledger-shard-mem-1.jsonl
	cmp ledger-shard-mem-merged.jsonl ledger-shard-mem-full.jsonl
	$(GO) run ./tools/questcheck -min-cells 3 -min-trials 300 ledger-shard-mem-merged.jsonl
	head -n 172 ledger-shard-mem-full.jsonl > ledger-shard-mem-crash.jsonl
	printf '{"record":"trial","cell":"mem' >> ledger-shard-mem-crash.jsonl
	$(GO) run ./cmd/questbench -trials 100 -workers 3 -resume ledger-shard-mem-crash.jsonl \
		-ledger ledger-shard-mem-resumed.jsonl memory
	cmp ledger-shard-mem-resumed.jsonl ledger-shard-mem-full.jsonl
	$(GO) run ./tools/questcheck -min-cells 3 -min-trials 300 ledger-shard-mem-resumed.jsonl

# Live-telemetry smoke — the same checks CI's events-smoke job runs. A
# 2-shard ledgered sweep streams quest-events/1 snapshots; questtop validates
# each stream's schema and monotonicity plus the fleet's coherence (one
# experiment, distinct shard indices), then renders the aggregate view.
# Finally the telemetry-is-a-pure-side-band claim is checked end to end: the
# shard-0 sweep rerun without -events must produce byte-identical ledger
# bytes (cmp). Artifacts match events-shard-*.jsonl, covered by .gitignore
# and `make clean`.
events-smoke:
	$(GO) run ./cmd/questbench -trials 16 -workers 2 -shard 0/2 \
		-ledger events-shard-ledger-0.jsonl -events events-shard-0.jsonl threshold
	$(GO) run ./cmd/questbench -trials 16 -workers 3 -shard 1/2 \
		-ledger events-shard-ledger-1.jsonl -events events-shard-1.jsonl threshold
	$(GO) run ./tools/questtop events-shard-0.jsonl events-shard-1.jsonl
	$(GO) run ./cmd/questbench -trials 16 -workers 2 -shard 0/2 \
		-ledger events-shard-ledger-off.jsonl threshold
	cmp events-shard-ledger-off.jsonl events-shard-ledger-0.jsonl

# Bandwidth-profiler smoke — the same checks CI's bw-smoke job runs. The
# memory experiment drives the full machine decode path (threshold cells
# bypass the machine, so they put no traffic on the buses): the same
# profiled sweep at -workers 1 and 8 must produce byte-identical quest-bw/1
# waveforms (cmp) — at 130 trials, three 64-trial lanes, so 8 workers really
# split each cell — and the -workers 1 ledger must be byte-identical with -bw
# on and off (profiling is a pure side-band). bwreport validates and renders
# the -workers 1 artifact, then three questsim runs — one per microcode
# design — feed the ram/fifo/unitcell comparison table. Artifacts match
# bw-smoke-*.jsonl, covered by .gitignore and `make clean`.
bw-smoke:
	$(GO) run ./cmd/questbench -trials 130 -workers 1 \
		-ledger bw-smoke-ledger-on.jsonl -bw bw-smoke-w1.jsonl memory
	$(GO) run ./cmd/questbench -trials 130 -workers 8 \
		-bw bw-smoke-w8.jsonl memory
	cmp bw-smoke-w1.jsonl bw-smoke-w8.jsonl
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

# Brief fuzzing sessions over the wire formats.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/qasm/
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/qexe/

# Remove only *untracked* files under the fuzz corpora directories (fuzzing
# drops new inputs there) plus build artifacts. An earlier version ran
# `rm -rf` on the whole testdata trees, which deleted the committed seed
# corpora; TestCleanTargetPreservesTrackedTestdata pins the fix.
clean:
	git clean -fdx internal/qasm/testdata internal/qexe/testdata
	rm -f ledger-shard-*.jsonl events-shard-*.jsonl bw-smoke-*.jsonl perf-smoke.*
	$(GO) clean ./...
