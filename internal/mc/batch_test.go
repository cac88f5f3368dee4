package mc

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/metrics"
)

// batchRate is observedRate in lane-batched form: the per-trial outcome is
// the same pure function of the trial seed, so RunBatch and Run must
// agree exactly. With profiling on, each trial also records bwTrial into
// its own bandwidth shard.
func batchRate(rate float64) BatchFn {
	return func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
		for i, seed := range seeds {
			if ctx.BW != nil {
				bwTrial(ctx.BW[i], seed)
			}
			rng := rand.New(rand.NewSource(int64(seed)))
			out[i] = Outcome{Fail: rng.Float64() < rate}
		}
	}
}

// bwTrial records one bus event that is a pure function of the trial seed,
// so a merged profile depends only on which trials are effective.
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

// TestRunBatchMatchesRunObserved pins the engine-level equivalence: for an
// outcome that is a pure function of the trial seed, RunBatch returns the
// identical Result, trial-ordered sink stream and merged quest-bw/1 bytes as
// Run — across worker counts, ragged final lanes, sub-lane trial counts and
// CI early stop.
func TestRunBatchMatchesRunObserved(t *testing.T) {
	cell := Seed(91, F64(3e-3), 7)
	for _, tc := range []struct {
		name    string
		trials  int
		ciWidth float64
	}{
		{"sub-lane", 17, 0},
		{"exact-lanes", 128, 0},
		{"ragged", 1000, 0},
		{"ci-stop", 4000, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type rec struct {
				trial int
				seed  uint64
				out   Outcome
			}
			var wantSink []rec
			wantBW := bwprofile.New(4)
			scalar := observedRate(0.3)
			want := Run(tc.trials, 1, cell, nil, nil, Observers{
				CIWidth: tc.ciWidth,
				BW:      wantBW,
				Sink:    func(trial int, seed uint64, out Outcome) { wantSink = append(wantSink, rec{trial, seed, out}) },
			}, func(trial int, seed uint64, ctx TrialCtx) Outcome {
				bwTrial(ctx.BW, seed)
				return scalar(trial, seed, ctx)
			})
			wantBytes := bwBytes(t, wantBW)
			for _, workers := range []int{1, 4} {
				var gotSink []rec
				gotBW := bwprofile.New(4)
				got := RunBatch(tc.trials, workers, cell, nil, nil, Observers{
					CIWidth: tc.ciWidth,
					BW:      gotBW,
					Sink:    func(trial int, seed uint64, out Outcome) { gotSink = append(gotSink, rec{trial, seed, out}) },
				}, batchRate(0.3))
				if got != want {
					t.Errorf("workers=%d: RunBatch %+v != Run %+v", workers, got, want)
				}
				if len(gotSink) != len(wantSink) {
					t.Fatalf("workers=%d: sink saw %d records, want %d", workers, len(gotSink), len(wantSink))
				}
				for i := range gotSink {
					if gotSink[i] != wantSink[i] {
						t.Fatalf("workers=%d: sink record %d = %+v, want %+v", workers, i, gotSink[i], wantSink[i])
					}
				}
				if !bytes.Equal(bwBytes(t, gotBW), wantBytes) {
					t.Errorf("workers=%d: merged quest-bw/1 bytes differ from Run's", workers)
				}
			}
		})
	}
}

// TestRunBatchLaneGeometry pins the lane protocol: every trial index is
// handed to fn exactly once, lanes start at LaneWidth multiples, only the
// final lane is short, and seeds[i] is TrialSeed(cell, start+i).
func TestRunBatchLaneGeometry(t *testing.T) {
	const trials = 3*LaneWidth + 11
	cell := Seed(7)
	var mu sync.Mutex
	covered := make([]int, trials)
	RunBatch(trials, 4, cell, nil, nil, Observers{},
		func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
			mu.Lock()
			defer mu.Unlock()
			if start%LaneWidth != 0 {
				t.Errorf("lane starts at %d, not a LaneWidth multiple", start)
			}
			if len(seeds) != len(out) {
				t.Errorf("lane at %d: %d seeds but %d outcome slots", start, len(seeds), len(out))
			}
			if len(seeds) != LaneWidth && start+len(seeds) != trials {
				t.Errorf("short lane [%d,%d) is not the final lane", start, start+len(seeds))
			}
			for i, seed := range seeds {
				covered[start+i]++
				if want := TrialSeed(cell, start+i); seed != want {
					t.Errorf("trial %d seed = %#x, want %#x", start+i, seed, want)
				}
			}
		})
	for tr, n := range covered {
		if n != 1 {
			t.Errorf("trial %d executed %d times, want exactly once", tr, n)
		}
	}
}

// TestTrialNsSumMatchesBusyGauge is the regression test for the double
// time.Since bug: the engine used to read the clock once for the busy-time
// accounting and again for the mc.trial.ns observation, so the histogram's
// sum could never reconcile with the worker-utilization numbers. With one
// worker there is no cross-worker rounding, so the histogram sum must equal
// the busy gauge exactly.
func TestTrialNsSumMatchesBusyGauge(t *testing.T) {
	reg := metrics.New()
	Run(200, 1, Seed(23), reg, nil, Observers{}, observedRate(0.2))
	sum := reg.Histogram("mc.trial.ns", metrics.LatencyBounds()).Summary().Sum
	busy := reg.Gauge("mc.worker_busy_ns").Value()
	if sum != busy {
		t.Errorf("mc.trial.ns sum = %v, mc.worker_busy_ns = %v; the engine read the clock twice", sum, busy)
	}

	// Same contract for the batched engine: lane durations are amortized per
	// trial, so the per-trial observations must still sum to the busy time
	// (up to float division; with one worker and exact lane sums the
	// reconstruction is n*(dur/n) per lane).
	regB := metrics.New()
	RunBatch(200, 1, Seed(23), regB, nil, Observers{}, batchRate(0.2))
	sumB := regB.Histogram("mc.trial.ns", metrics.LatencyBounds()).Summary().Sum
	busyB := regB.Gauge("mc.worker_busy_ns").Value()
	if busyB == 0 {
		t.Fatal("batched run recorded no busy time")
	}
	if rel := (sumB - busyB) / busyB; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("batched mc.trial.ns sum = %v vs busy %v (rel err %v)", sumB, busyB, rel)
	}
}

// TestProgressMonotonicUnderCIStop is the regression test for the overrun
// progress bug: with CI early stop and many workers, in-flight trials past
// the stop point used to inflate the completion-ordered counts, so a
// mid-run snapshot could exceed the final Done snapshot and the stream ran
// backwards. Snapshots must now report the trial-ordered frontier: strictly
// nondecreasing and never above the effective trial count.
func TestProgressMonotonicUnderCIStop(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	res := Run(5000, 8, Seed(61, F64(0.4)), nil, nil, Observers{
		CIWidth:       0.2,
		ProgressEvery: 1, // maximal pressure: every completion emits
		Progress: func(p Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	}, observedRate(0.4))
	if res.Trials >= 5000 {
		t.Fatalf("CI stop never fired (trials = %d); the test needs overrun pressure", res.Trials)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	last := snaps[len(snaps)-1]
	if !last.Done || last.Completed != res.Trials {
		t.Fatalf("final snapshot %+v does not carry the Result count %d", last, res.Trials)
	}
	prev := 0
	for i, p := range snaps[:len(snaps)-1] {
		if p.Done {
			t.Errorf("snapshot %d marked Done mid-run", i)
		}
		if p.Completed < prev {
			t.Errorf("progress ran backwards: snapshot %d reports %d after %d", i, p.Completed, prev)
		}
		prev = p.Completed
		if p.Completed > res.Trials {
			t.Errorf("snapshot %d reports %d completed trials, beyond the effective %d",
				i, p.Completed, res.Trials)
		}
	}
}
