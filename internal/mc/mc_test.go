package mc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"quest/internal/bandwidth"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

func TestRunWorkerCountInvariant(t *testing.T) {
	cell := Seed(42, F64(1e-3), 3)
	base := RunBatch(500, 1, cell, nil, nil, Observers{}, observedRate(0.3))
	for _, w := range []int{2, 4, 8, 0} {
		got := RunBatch(500, w, cell, nil, nil, Observers{}, observedRate(0.3))
		if got != base {
			t.Errorf("workers=%d result %+v != workers=1 result %+v", w, got, base)
		}
	}
	if base.Failures == 0 || base.Failures == 500 {
		t.Fatalf("degenerate failure count %d", base.Failures)
	}
	if base.Rate != float64(base.Failures)/500 {
		t.Errorf("rate %v inconsistent with %d/500", base.Rate, base.Failures)
	}
}

func TestSeedsUncorrelatedAcrossCellsAndTrials(t *testing.T) {
	seen := map[uint64]string{}
	for _, p := range []float64{1e-3, 5e-4, 1e-4} {
		for _, d := range []int{3, 5, 7} {
			cell := Seed(1, F64(p), uint64(d))
			for trial := 0; trial < 50; trial++ {
				s := TrialSeed(cell, trial)
				id := fmt.Sprintf("p=%v d=%d t=%d", p, d, trial)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %#x", prev, id, s)
				}
				seen[s] = id
			}
		}
	}
	// The historical bug: trial seeds identical for every (p, d) cell.
	a := TrialSeed(Seed(1, F64(1e-3), 3), 7)
	b := TrialSeed(Seed(1, F64(5e-4), 3), 7)
	if a == b {
		t.Error("same trial in different cells drew the same seed")
	}
}

func TestDeriveLanesDiffer(t *testing.T) {
	s := TrialSeed(Seed(9), 0)
	if Derive(s, 0) == Derive(s, 1) {
		t.Error("derived lanes collide")
	}
	if Derive(s, 0) == s {
		t.Error("lane 0 equals parent seed")
	}
}

func TestWilson(t *testing.T) {
	cases := []struct {
		k, n   int
		lo, hi float64
	}{
		{0, 100, 0, 0.0370},
		{5, 100, 0.0215, 0.1118},
		{100, 100, 0.9630, 1},
		{50, 100, 0.4038, 0.5962},
	}
	for _, c := range cases {
		lo, hi := Wilson(c.k, c.n, 1.96)
		if math.Abs(lo-c.lo) > 5e-4 || math.Abs(hi-c.hi) > 5e-4 {
			t.Errorf("Wilson(%d,%d) = [%.4f, %.4f], want [%.4f, %.4f]", c.k, c.n, lo, hi, c.lo, c.hi)
		}
	}
	if lo, hi := Wilson(1, 0, 1.96); lo != 0 || hi != 0 {
		t.Errorf("Wilson with n=0 = [%v, %v]", lo, hi)
	}
}

func TestRunEmptyAndError(t *testing.T) {
	if res := RunBatch(0, 4, 1, nil, nil, Observers{}, observedRate(0.3)); res != (Result{}) {
		t.Errorf("empty run = %+v", res)
	}
	// errA is the first error in trial order; errB follows it in the same
	// lane and again in the next one.
	errA, errB := errors.New("a"), errors.New("b")
	res := RunBatch(3*LaneWidth, 4, 1, nil, nil, Observers{}, func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
		for i := range out {
			switch start + i {
			case LaneWidth + 7, 2*LaneWidth + 3:
				out[i] = Outcome{Err: errB}
			case LaneWidth + 3:
				out[i] = Outcome{Err: errA}
			}
		}
	})
	if res.Err != errA {
		t.Errorf("Err = %v, want first error in trial order (a)", res.Err)
	}
}

// TestRunSharedCounterUnderRace drives the pool with a shared
// bandwidth.Counter — the concurrent use the Counter's atomics were built
// for — so `go test -race` exercises the engine + counter combination.
func TestRunSharedCounterUnderRace(t *testing.T) {
	var ctr bandwidth.Counter
	workers := runtime.GOMAXPROCS(0) * 4
	res := RunBatch(400, workers, Seed(7), nil, nil, Observers{}, func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
		for i := range out {
			trial := start + i
			ctr.Add(3, uint64(trial))
			out[i] = Outcome{Fail: trial%5 == 0}
		}
	})
	if res.Failures != 80 {
		t.Errorf("failures = %d, want 80", res.Failures)
	}
	if got := ctr.Instructions(); got != 1200 {
		t.Errorf("instructions = %d, want 1200", got)
	}
	if got := ctr.Bytes(); got != 400*399/2 {
		t.Errorf("bytes = %d, want %d", got, 400*399/2)
	}
}

func TestWilsonAttachedToResult(t *testing.T) {
	res := RunBatch(200, 4, Seed(3), nil, nil, Observers{}, observedRate(0.3))
	lo, hi := Wilson(res.Failures, res.Trials, 1.96)
	if res.WilsonLo != lo || res.WilsonHi != hi {
		t.Errorf("result CI [%v, %v] != Wilson [%v, %v]", res.WilsonLo, res.WilsonHi, lo, hi)
	}
	if !(res.WilsonLo <= res.Rate && res.Rate <= res.WilsonHi) {
		t.Errorf("rate %v outside its own CI [%v, %v]", res.Rate, res.WilsonLo, res.WilsonHi)
	}
}

// TestRunWithShardMergeInvariant pins the per-worker shard contract: the
// merged counters and histograms must reflect every trial exactly once, and
// both the simulation Result and the merged totals must be identical for any
// worker count (shards partition the trials; counters and fixed-bucket
// histograms merge by addition, which commutes). 1100 trials make 18 lanes,
// enough for every worker count below to get one.
func TestRunWithShardMergeInvariant(t *testing.T) {
	const trials = 1100
	run := func(workers int) (Result, uint64, uint64, uint64) {
		reg := metrics.New()
		res := RunBatch(trials, workers, Seed(11), reg, nil, Observers{},
			func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
				if ctx.Shard == nil {
					t.Error("nil shard despite non-nil registry")
					return
				}
				for i := range out {
					ctx.Shard.Counter("test.work").Add(uint64(start + i))
					out[i] = Outcome{Fail: (start+i)%3 == 0}
				}
			})
		return res,
			reg.Counter("mc.trials").Value(),
			reg.Counter("mc.failures").Value(),
			reg.Counter("test.work").Value()
	}
	baseRes, baseTrials, baseFails, baseWork := run(1)
	if baseTrials != trials {
		t.Errorf("merged mc.trials = %d, want %d", baseTrials, trials)
	}
	if want := uint64((trials + 2) / 3); baseFails != want {
		t.Errorf("merged mc.failures = %d, want %d", baseFails, want)
	}
	if want := uint64(trials * (trials - 1) / 2); baseWork != want {
		t.Errorf("merged test.work = %d, want %d", baseWork, want)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		res, trials, fails, work := run(workers)
		if res != baseRes {
			t.Errorf("workers=%d: Result %+v != single-worker %+v", workers, res, baseRes)
		}
		if trials != baseTrials || fails != baseFails || work != baseWork {
			t.Errorf("workers=%d: merged totals (%d,%d,%d) != (%d,%d,%d)",
				workers, trials, fails, work, baseTrials, baseFails, baseWork)
		}
	}
}

// TestRunWithHistogramMerge checks that per-worker trial histograms merge
// into one histogram counting every trial. Four lanes give each of the four
// workers one.
func TestRunWithHistogramMerge(t *testing.T) {
	reg := metrics.New()
	RunBatch(4*LaneWidth, 4, Seed(13), reg, nil, Observers{}, func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {})
	h := reg.Histogram("mc.trial.ns", metrics.LatencyBounds())
	if got := h.Count(); got != 4*LaneWidth {
		t.Errorf("merged mc.trial.ns count = %d, want %d", got, 4*LaneWidth)
	}
	if reg.Gauge("mc.workers").Value() != 4 {
		t.Errorf("mc.workers gauge = %v, want 4", reg.Gauge("mc.workers").Value())
	}
	u := reg.Gauge("mc.worker_utilization").Value()
	if u < 0 || u > 1 {
		t.Errorf("worker utilization %v outside [0,1]", u)
	}
}

// TestRunWithNilRegistry pins that nil observers disable every hook: with a
// nil registry, a nil tracer and a zero Observers, fn sees no live
// observation hook at all, and the Result is still computed.
func TestRunWithNilRegistry(t *testing.T) {
	res := RunBatch(150, 4, Seed(11), nil, nil, Observers{},
		func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
			if ctx.Shard != nil || ctx.Trace != nil || ctx.Heat != nil || ctx.BW != nil {
				t.Error("nil registry, nil tracer and zero Observers handed out live observation hooks")
			}
			for i := range out {
				out[i] = Outcome{Fail: (start+i)%3 == 0}
			}
		})
	if res.Failures != 50 {
		t.Errorf("failures = %d, want 50", res.Failures)
	}
}

// TestRunTracedDeterminism pins the tracing determinism contract: the merged
// trace of a run is the same event multiset regardless of worker count, and
// the canonical-sorting exporter therefore produces byte-identical JSON for
// workers=1 and workers=8. Runs under -race via make race, which also pins
// shard isolation (each worker records only into its private tracer). The
// 150 trials span two full lanes and a short one, so workers=8 really
// splits the trace over three shards.
func TestRunTracedDeterminism(t *testing.T) {
	runOnce := func(workers int) []byte {
		tr := tracing.New(1 << 12)
		res := RunBatch(150, workers, Seed(7), nil, tr, Observers{},
			func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
				trace := ctx.Trace
				if trace == nil {
					t.Error("expected per-worker trace shard")
					return
				}
				for i, seed := range seeds {
					// Synthetic per-trial events: cycle timebase derived from
					// the trial index only, never from scheduling.
					trial := start + i
					trace.SpanArg("mce", trial%4, "busy", int64(trial), 1, "uops", int64(seed%97))
					trace.Instant("master", 0, "dispatch", int64(trial))
					out[i] = Outcome{Fail: trial%5 == 0}
				}
			})
		if res.Failures != 30 {
			t.Fatalf("workers=%d: failures = %d, want 30", workers, res.Failures)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, eight := runOnce(1), runOnce(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("merged trace depends on worker count:\nworkers=1: %d bytes\nworkers=8: %d bytes", len(one), len(eight))
	}
	rep, err := tracing.Validate(one)
	if err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if rep.Events != 300 {
		t.Errorf("events = %d, want 300", rep.Events)
	}
}

// TestRunTracedNilTracer pins that a nil tracer disables trace sharding
// without disturbing metrics sharding or the Result.
func TestRunTracedNilTracer(t *testing.T) {
	reg := metrics.New()
	res := RunBatch(150, 4, Seed(9), reg, nil, Observers{},
		func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
			if ctx.Trace != nil {
				t.Error("expected nil trace shard with nil tracer")
			}
			if ctx.Shard == nil {
				t.Error("expected metrics shard")
			}
			for i := range out {
				ctx.Trace.Span("mce", 0, "busy", int64(start+i), 1) // must be a safe no-op
				out[i] = Outcome{Fail: (start+i)%2 == 0}
			}
		})
	if res.Failures != 75 {
		t.Errorf("failures = %d, want 75", res.Failures)
	}
	if got := reg.Counter("mc.trials").Value(); got != 150 {
		t.Errorf("mc.trials = %d, want 150", got)
	}
}
