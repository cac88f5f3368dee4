package mc

import (
	"sync"
	"testing"

	"quest/internal/metrics"
)

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
// sum could never reconcile with the worker-utilization numbers. Lane
// durations are amortized per trial, so with one worker the per-trial
// observations must sum to the busy gauge up to float division (n*(dur/n)
// per lane).
func TestTrialNsSumMatchesBusyGauge(t *testing.T) {
	reg := metrics.New()
	RunBatch(200, 1, Seed(23), reg, nil, Observers{}, observedRate(0.2))
	sum := reg.Histogram("mc.trial.ns", metrics.LatencyBounds()).Summary().Sum
	busy := reg.Gauge("mc.worker_busy_ns").Value()
	if busy == 0 {
		t.Fatal("run recorded no busy time")
	}
	if rel := (sum - busy) / busy; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("mc.trial.ns sum = %v vs mc.worker_busy_ns %v (rel err %v); the engine read the clock twice", sum, busy, rel)
	}
}
