package mc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/metrics"
)

// observedRate is a deterministic pseudo-experiment: a trial fails iff its
// own seeded RNG says so. Any dependence on scheduling would break the
// worker-count invariance the tests assert.
func observedRate(rate float64) BatchFn {
	return func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
		for i, seed := range seeds {
			rng := rand.New(rand.NewSource(int64(seed)))
			out[i] = Outcome{Fail: rng.Float64() < rate}
		}
	}
}

// bwTrial records one bus event that is a pure function of the trial seed,
// so a merged profile depends only on which trials ran.
func bwTrial(bw *bwprofile.Recorder, seed uint64) {
	bw.Observe(int(seed%40), bwprofile.BusLogical, bwprofile.ClassPauli, 1, seed%5)
}

// bwBytes serializes a merged profile as quest-bw/1 JSONL.
func bwBytes(t *testing.T, bw *bwprofile.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := bw.WriteJSONL(&b, "mc-test", nil); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return b.Bytes()
}

// TestWilsonEdgeCases pins the boundary behavior every sweep row, ledger
// summary and progress line relies on: degenerate counts stay inside [0,1],
// zero-failure and all-failure intervals stay strictly informative, and the
// interval narrows monotonically as trials grow at a fixed rate.
func TestWilsonEdgeCases(t *testing.T) {
	// failures = 0: lo must be exactly 0, hi strictly inside (0, 1).
	lo, hi := Wilson(0, 50, 1.96)
	if lo != 0 {
		t.Errorf("Wilson(0,50) lo = %v, want 0", lo)
	}
	if hi <= 0 || hi >= 1 {
		t.Errorf("Wilson(0,50) hi = %v, want in (0,1)", hi)
	}
	// failures = trials: hi must be exactly 1, lo strictly inside (0, 1).
	lo, hi = Wilson(50, 50, 1.96)
	if hi != 1 {
		t.Errorf("Wilson(50,50) hi = %v, want 1", hi)
	}
	if lo <= 0 || lo >= 1 {
		t.Errorf("Wilson(50,50) lo = %v, want in (0,1)", lo)
	}
	// trials = 1: both outcomes give a very wide but valid interval.
	for k := 0; k <= 1; k++ {
		lo, hi = Wilson(k, 1, 1.96)
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("Wilson(%d,1) = [%v, %v] not a valid interval", k, lo, hi)
		}
		if hi-lo < 0.5 {
			t.Errorf("Wilson(%d,1) width %v implausibly narrow for one trial", k, hi-lo)
		}
	}
	// Monotonic narrowing: at a fixed failure rate, more trials must never
	// widen the interval, or a -progress line could show a converging cell
	// losing confidence.
	for _, rate := range []float64{0, 0.1, 0.5, 1} {
		prev := 2.0
		for _, n := range []int{10, 40, 160, 640, 2560} {
			k := int(rate * float64(n))
			lo, hi := Wilson(k, n, 1.96)
			if w := hi - lo; w > prev {
				t.Errorf("rate %v: width widened from %v to %v at n=%d", rate, prev, w, n)
			} else {
				prev = w
			}
		}
	}
}

// TestRunAllocs pins the metrics-off hot path. The count per call is the
// same at 100 and at 10,000 trials, so the runner does not allocate per
// trial: every allocation is per-cell pool setup. Observer state is nil when
// its hook is off and is captured by value, never as a heap cell, so the
// Observers plumbing costs the unobserved path nothing.
func TestRunAllocs(t *testing.T) {
	const pin = 8
	fn := func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
		for i, seed := range seeds {
			out[i] = Outcome{Fail: seed&1 == 0}
		}
	}
	for _, trials := range []int{100, 10000} {
		got := testing.AllocsPerRun(20, func() { RunBatch(trials, 1, Seed(5), nil, nil, Observers{}, fn) })
		if got != pin {
			t.Errorf("RunBatch(%d trials) metrics-off allocs/call = %v, pinned at %v", trials, got, pin)
		}
	}
}

// TestObservedSinkTrialOrder pins the ledger feed contract: the sink sees
// every trial, in trial order, with the engine's own
// derived seeds, on the caller's goroutine after the pool drains. The run
// spans three full lanes and a short one.
func TestObservedSinkTrialOrder(t *testing.T) {
	cell := Seed(29)
	var got []string
	res := RunBatch(3*LaneWidth+8, 8, cell, nil, nil, Observers{
		Sink: func(trial int, seed uint64, out Outcome) {
			got = append(got, fmt.Sprintf("%d:%x:%v", trial, seed, out.Fail))
		},
	}, observedRate(0.25))
	if len(got) != res.Trials {
		t.Fatalf("sink saw %d trials, Result has %d", len(got), res.Trials)
	}
	for trial := range got {
		rng := rand.New(rand.NewSource(int64(TrialSeed(cell, trial))))
		want := fmt.Sprintf("%d:%x:%v", trial, TrialSeed(cell, trial), rng.Float64() < 0.25)
		if got[trial] != want {
			t.Fatalf("sink record %d = %q, want %q", trial, got[trial], want)
		}
	}
}

// TestObservedHeatDeterministicAcrossWorkers pins that the merged heatmap
// and quest-bw/1 bytes are identical for any worker count: each worker
// records the lanes it happens to claim into its own shards, and the merge
// must not depend on that split. 3000 trials make 47 lanes.
func TestObservedHeatDeterministicAcrossWorkers(t *testing.T) {
	cell := Seed(31, F64(5e-3), 3)
	runOnce := func(workers int) ([][]int64, []int64, []byte, Result) {
		heat := heatmap.New(5, 5)
		bw := bwprofile.New(4)
		res := RunBatch(3000, workers, cell, nil, nil,
			Observers{Heat: heat, BW: bw},
			func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
				if ctx.Heat == nil || ctx.BW == nil {
					t.Error("expected worker heat and bandwidth shards")
					return
				}
				if ctx.Heat == heat || ctx.BW == bw {
					t.Error("a worker records into the parent, not a private shard")
					return
				}
				for i, seed := range seeds {
					bwTrial(ctx.BW, seed)
					rng := rand.New(rand.NewSource(int64(seed)))
					ctx.Heat.Defect(rng.Intn(5), rng.Intn(5))
					ctx.Heat.MatchedPair(rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(8))
					out[i] = Outcome{Fail: rng.Float64() < 0.3}
				}
			})
		return heat.Defects(), heat.ChainLengths(), bwBytes(t, bw), res
	}
	baseD, baseH, baseBW, baseRes := runOnce(1)
	for _, w := range []int{2, 8} {
		d, h, bw, res := runOnce(w)
		if res != baseRes {
			t.Errorf("workers=%d: Result %+v != %+v", w, res, baseRes)
		}
		if fmt.Sprint(d) != fmt.Sprint(baseD) || fmt.Sprint(h) != fmt.Sprint(baseH) {
			t.Errorf("workers=%d: merged heatmap differs from workers=1", w)
		}
		if !bytes.Equal(bw, baseBW) {
			t.Errorf("workers=%d: merged quest-bw/1 bytes differ from workers=1", w)
		}
	}
	var total int64
	for _, row := range baseD {
		for _, v := range row {
			total += v
		}
	}
	if total != int64(baseRes.Trials) {
		t.Errorf("%d defects merged, want one per trial (%d)", total, baseRes.Trials)
	}
}

// TestObservedProgress pins the progress contract: snapshots every
// trials/100 completed trials (every 2nd of these 200), strictly
// increasing, and a final Done snapshot matching the Result, over three
// full lanes and a short one.
func TestObservedProgress(t *testing.T) {
	const trials = 3*LaneWidth + 8
	const every = trials / 100
	var snaps []Progress
	res := RunBatch(trials, 4, Seed(37), nil, nil, Observers{
		Progress: func(p Progress) { snaps = append(snaps, p) },
	}, observedRate(0.2))
	if want := trials/every + 1; len(snaps) != want {
		t.Fatalf("got %d progress snapshots, want %d (one every %d trials, plus Done)", len(snaps), want, every)
	}
	last := snaps[len(snaps)-1]
	if !last.Done {
		t.Error("final snapshot not marked Done")
	}
	if last.Completed != res.Trials || last.Failures != res.Failures ||
		last.WilsonLo != res.WilsonLo || last.WilsonHi != res.WilsonHi {
		t.Errorf("final snapshot %+v disagrees with Result %+v", last, res)
	}
	prev := 0
	for _, p := range snaps[:len(snaps)-1] {
		if p.Done {
			t.Error("mid-run snapshot marked Done")
		}
		if p.Completed <= prev {
			t.Errorf("progress not monotonic: %d after %d", p.Completed, prev)
		}
		prev = p.Completed
		if p.Completed%every != 0 {
			t.Errorf("snapshot at %d trials is off the every-%d cadence", p.Completed, every)
		}
		if !(p.WilsonLo <= float64(p.Failures)/float64(p.Completed) &&
			float64(p.Failures)/float64(p.Completed) <= p.WilsonHi) {
			t.Errorf("snapshot %+v: rate outside its interval", p)
		}
	}
}

// TestObservedMetricsShardsStillMerge pins the per-worker metrics contract:
// every executed trial is counted exactly once.
func TestObservedMetricsShardsStillMerge(t *testing.T) {
	reg := metrics.New()
	var calls atomic.Int64
	res := RunBatch(3*LaneWidth+8, 4, Seed(41), reg, nil, Observers{},
		func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
			if ctx.Shard == nil {
				t.Error("expected metrics shard")
				return
			}
			for i := range out {
				calls.Add(1)
				ctx.Shard.Counter("test.obs").Inc()
				out[i] = Outcome{Fail: (start+i)%4 == 0}
			}
		})
	if res.Failures != 50 {
		t.Errorf("failures = %d, want 50", res.Failures)
	}
	if got := reg.Counter("mc.trials").Value(); got != 3*LaneWidth+8 {
		t.Errorf("mc.trials = %d, want %d", got, 3*LaneWidth+8)
	}
	if got := reg.Counter("test.obs").Value(); got != uint64(calls.Load()) {
		t.Errorf("merged test.obs = %d, executed %d", got, calls.Load())
	}
}
