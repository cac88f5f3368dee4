package mc

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"quest/internal/metrics"
)

// priorFn is a deterministic trial body that also counts executions.
func priorFn(calls *atomic.Int64) func(trial int, seed uint64, ctx TrialCtx) Outcome {
	return func(trial int, seed uint64, ctx TrialCtx) Outcome {
		calls.Add(1)
		return Outcome{Fail: seed%3 == 0}
	}
}

// recordOutcomes runs a full cell and returns its trial-ordered outcomes via
// the Sink — the shape a resume checkpoint replays.
func recordOutcomes(trials int) ([]Outcome, Result) {
	outs := make([]Outcome, 0, trials)
	var calls atomic.Int64
	res := Run(trials, 4, 0xc0ffee, nil, nil, Observers{
		Sink: func(trial int, seed uint64, out Outcome) { outs = append(outs, out) },
	}, priorFn(&calls))
	return outs, res
}

// TestPriorSkipsExecution pins the resume hook's core promise: trials
// covered by Prior are never executed, and the Result is identical to the
// run that executed everything.
func TestPriorSkipsExecution(t *testing.T) {
	const trials = 20
	outs, want := recordOutcomes(trials)
	for _, prior := range []int{0, 1, 7, trials} {
		var calls atomic.Int64
		var sunk []Outcome
		got := Run(trials, 4, 0xc0ffee, nil, nil, Observers{
			Prior: outs[:prior],
			Sink:  func(trial int, seed uint64, out Outcome) { sunk = append(sunk, out) },
		}, priorFn(&calls))
		if got != want {
			t.Errorf("prior=%d: Result %+v != full run %+v", prior, got, want)
		}
		if int(calls.Load()) != trials-prior {
			t.Errorf("prior=%d: executed %d trials, want %d", prior, calls.Load(), trials-prior)
		}
		if !reflect.DeepEqual(sunk, outs) {
			t.Errorf("prior=%d: Sink stream differs from the full run's", prior)
		}
	}
}

// TestPriorLongerThanBudgetIsTruncated pins the edge where the checkpoint
// recorded more trials than this run's budget: the excess is ignored, no
// trial executes, and the Result covers exactly the budget.
func TestPriorLongerThanBudgetIsTruncated(t *testing.T) {
	outs, _ := recordOutcomes(20)
	var calls atomic.Int64
	_, want := recordOutcomes(12)
	got := Run(12, 4, 0xc0ffee, nil, nil, Observers{Prior: outs}, priorFn(&calls))
	if calls.Load() != 0 {
		t.Errorf("executed %d trials with a full prior, want 0", calls.Load())
	}
	if got != want {
		t.Errorf("Result %+v != 12-trial run %+v", got, want)
	}
}

// TestPriorFeedsCIStop pins that prior outcomes reach the Wilson-width stop
// frontier: a resumed run stops at the same trial count as the uninterrupted
// one, whether the stop point falls inside or beyond the prior prefix.
func TestPriorFeedsCIStop(t *testing.T) {
	const budget = 300
	obs := Observers{CIWidth: 0.2}
	var calls atomic.Int64
	want := Run(budget, 4, 0xc0ffee, nil, nil, obs, priorFn(&calls))
	if want.Trials >= budget {
		t.Fatalf("ci-stop never fired (%d trials); widen the test margin", want.Trials)
	}
	outs, _ := recordOutcomes(budget)
	for _, prior := range []int{want.Trials / 2, want.Trials, budget} {
		o := obs
		o.Prior = outs[:prior]
		var resumedCalls atomic.Int64
		got := Run(budget, 4, 0xc0ffee, nil, nil, o, priorFn(&resumedCalls))
		if got != want {
			t.Errorf("prior=%d: Result %+v != uninterrupted %+v", prior, got, want)
		}
		if prior >= want.Trials && resumedCalls.Load() != 0 {
			t.Errorf("prior=%d covers the stop point but %d trials executed", prior, resumedCalls.Load())
		}
	}
}

// priorBatchFn is priorFn in lane form. It counts executed trials and flags
// any lane that reaches below the prior prefix.
func priorBatchFn(t *testing.T, prior int, calls *atomic.Int64) BatchFn {
	return func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
		if start < prior {
			t.Errorf("prior=%d: lane at trial %d re-executes a recorded trial", prior, start)
		}
		calls.Add(int64(len(seeds)))
		for i, seed := range seeds {
			out[i] = Outcome{Fail: seed%3 == 0}
		}
	}
}

// TestRunBatchPriorSkipsExecution is TestPriorSkipsExecution for the lane
// engine: the first lane starts at len(Prior), wherever that falls relative
// to a LaneWidth boundary, so only unrecorded trials execute and mc.trials
// counts exactly those, while the Result and Sink stream match the full run.
func TestRunBatchPriorSkipsExecution(t *testing.T) {
	const trials = 3*LaneWidth + 9
	outs, want := recordOutcomes(trials)
	for _, prior := range []int{1, LaneWidth - 1, LaneWidth, LaneWidth + 1, trials} {
		var calls atomic.Int64
		var sunk []Outcome
		reg := metrics.New()
		got := RunBatch(trials, 4, 0xc0ffee, reg, nil, Observers{
			Prior: outs[:prior],
			Sink:  func(trial int, seed uint64, out Outcome) { sunk = append(sunk, out) },
		}, priorBatchFn(t, prior, &calls))
		if got != want {
			t.Errorf("prior=%d: Result %+v != full run %+v", prior, got, want)
		}
		if int(calls.Load()) != trials-prior {
			t.Errorf("prior=%d: executed %d trials, want %d", prior, calls.Load(), trials-prior)
		}
		if n := reg.Counter("mc.trials").Value(); n != uint64(trials-prior) {
			t.Errorf("prior=%d: mc.trials = %d, want %d", prior, n, trials-prior)
		}
		if u := reg.Gauge("mc.worker_utilization").Value(); math.IsNaN(u) {
			t.Errorf("prior=%d: mc.worker_utilization is NaN", prior)
		}
		if !reflect.DeepEqual(sunk, outs) {
			t.Errorf("prior=%d: Sink stream differs from the full run's", prior)
		}
	}
}

// TestRunBatchPriorFeedsCIStop is TestPriorFeedsCIStop for the lane engine:
// the prior prefix reaches the stop frontier before any lane is claimed, so
// a resumed run stops where the uninterrupted one did, and a prefix that has
// already converged claims no lane at all.
func TestRunBatchPriorFeedsCIStop(t *testing.T) {
	const budget = 300
	obs := Observers{CIWidth: 0.2}
	var calls atomic.Int64
	want := Run(budget, 4, 0xc0ffee, nil, nil, obs, priorFn(&calls))
	if want.Trials >= budget {
		t.Fatalf("ci-stop never fired (%d trials); widen the test margin", want.Trials)
	}
	outs, _ := recordOutcomes(budget)
	for _, prior := range []int{want.Trials / 2, want.Trials, budget} {
		o := obs
		o.Prior = outs[:prior]
		var resumedCalls atomic.Int64
		got := RunBatch(budget, 4, 0xc0ffee, nil, nil, o, priorBatchFn(t, prior, &resumedCalls))
		if got != want {
			t.Errorf("prior=%d: Result %+v != uninterrupted %+v", prior, got, want)
		}
		if prior >= want.Trials && resumedCalls.Load() != 0 {
			t.Errorf("prior=%d covers the stop point but %d trials executed", prior, resumedCalls.Load())
		}
	}
}
