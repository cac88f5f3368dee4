package mc

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"quest/internal/metrics"
)

// priorFn is a deterministic lane body. It counts executed trials and flags
// any lane that reaches below the prior prefix.
func priorFn(t *testing.T, prior int, calls *atomic.Int64) BatchFn {
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

// recordOutcomes runs a full cell and returns its trial-ordered outcomes via
// the Sink — the shape a resume checkpoint replays.
func recordOutcomes(t *testing.T, trials int) ([]Outcome, Result) {
	outs := make([]Outcome, 0, trials)
	var calls atomic.Int64
	res := RunBatch(trials, 4, 0xc0ffee, nil, nil, Observers{
		Sink: func(trial int, seed uint64, out Outcome) { outs = append(outs, out) },
	}, priorFn(t, 0, &calls))
	return outs, res
}

// TestPriorSkipsExecution pins the resume hook's core promise on a budget
// shorter than one lane: trials covered by Prior are never executed, and the
// Result and Sink stream are identical to the run that executed everything.
func TestPriorSkipsExecution(t *testing.T) {
	const trials = 20
	outs, want := recordOutcomes(t, trials)
	for _, prior := range []int{0, 1, 7, trials} {
		var calls atomic.Int64
		var sunk []Outcome
		got := RunBatch(trials, 4, 0xc0ffee, nil, nil, Observers{
			Prior: outs[:prior],
			Sink:  func(trial int, seed uint64, out Outcome) { sunk = append(sunk, out) },
		}, priorFn(t, prior, &calls))
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
	outs, _ := recordOutcomes(t, 2*LaneWidth+20)
	var calls atomic.Int64
	_, want := recordOutcomes(t, LaneWidth+12)
	got := RunBatch(LaneWidth+12, 4, 0xc0ffee, nil, nil, Observers{Prior: outs}, priorFn(t, len(outs), &calls))
	if calls.Load() != 0 {
		t.Errorf("executed %d trials with a full prior, want 0", calls.Load())
	}
	if got != want {
		t.Errorf("Result %+v != %d-trial run %+v", got, LaneWidth+12, want)
	}
}

// TestRunBatchPriorSkipsExecution is TestPriorSkipsExecution across lanes:
// the first lane starts at len(Prior), wherever that falls relative to a
// LaneWidth boundary, so only unrecorded trials execute and mc.trials counts
// exactly those, while the Result and Sink stream match the full run.
func TestRunBatchPriorSkipsExecution(t *testing.T) {
	const trials = 3*LaneWidth + 9
	outs, want := recordOutcomes(t, trials)
	for _, prior := range []int{1, LaneWidth - 1, LaneWidth, LaneWidth + 1, trials} {
		var calls atomic.Int64
		var sunk []Outcome
		reg := metrics.New()
		got := RunBatch(trials, 4, 0xc0ffee, reg, nil, Observers{
			Prior: outs[:prior],
			Sink:  func(trial int, seed uint64, out Outcome) { sunk = append(sunk, out) },
		}, priorFn(t, prior, &calls))
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

// priorFeedsCIStop pins that prior outcomes reach the Wilson-width stop
// frontier before any lane is claimed: a resumed run stops at the same trial
// count as the uninterrupted one, whether the stop point falls inside or
// beyond the prior prefix, and a prefix that has already converged claims no
// lane at all. It returns the uninterrupted Result.
func priorFeedsCIStop(t *testing.T, budget int, width float64) Result {
	t.Helper()
	obs := Observers{CIWidth: width}
	var calls atomic.Int64
	want := RunBatch(budget, 4, 0xc0ffee, nil, nil, obs, priorFn(t, 0, &calls))
	if want.Trials >= budget {
		t.Fatalf("ci-stop never fired (%d trials); widen the test margin", want.Trials)
	}
	outs, _ := recordOutcomes(t, budget)
	for _, prior := range []int{want.Trials / 2, want.Trials, budget} {
		o := obs
		o.Prior = outs[:prior]
		var resumedCalls atomic.Int64
		got := RunBatch(budget, 4, 0xc0ffee, nil, nil, o, priorFn(t, prior, &resumedCalls))
		if got != want {
			t.Errorf("prior=%d: Result %+v != uninterrupted %+v", prior, got, want)
		}
		if prior >= want.Trials && resumedCalls.Load() != 0 {
			t.Errorf("prior=%d covers the stop point but %d trials executed", prior, resumedCalls.Load())
		}
	}
	return want
}

// TestPriorFeedsCIStop is priorFeedsCIStop with the stop point inside the
// first lane, so every prior prefix ends mid-lane.
func TestPriorFeedsCIStop(t *testing.T) {
	if want := priorFeedsCIStop(t, 300, 0.35); want.Trials >= LaneWidth {
		t.Errorf("stop point %d is past the first lane; narrow the test's width", want.Trials)
	}
}

// TestRunBatchPriorFeedsCIStop is priorFeedsCIStop with the stop point past
// the first lane, so a resumed run's first lane straddles a lane boundary.
func TestRunBatchPriorFeedsCIStop(t *testing.T) {
	if want := priorFeedsCIStop(t, 300, 0.2); want.Trials <= LaneWidth {
		t.Errorf("stop point %d is inside the first lane; widen the test's width", want.Trials)
	}
}
