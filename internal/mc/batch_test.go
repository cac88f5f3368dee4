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

// TestProgressMonotonicUnderCIStop is the regression test for the overrun
// progress bug: with CI early stop and many workers, in-flight trials past
// the stop point used to inflate the completion-ordered counts, so a
// mid-run snapshot could exceed the final Done snapshot and the stream ran
// backwards. Snapshots must now report the trial-ordered frontier: strictly
// nondecreasing and never above the effective trial count.
func TestProgressMonotonicUnderCIStop(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	res := RunBatch(5000, 8, Seed(61, F64(0.4)), nil, nil, Observers{
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
