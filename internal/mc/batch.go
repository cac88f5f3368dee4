package mc

import (
	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// LaneWidth is the number of trials a batched engine packs per uint64 lane —
// one trial per bit, so noise masks and syndrome lanes combine with single
// word ops.
const LaneWidth = 64

// BatchCtx carries the per-lane observation hooks into a batched trial
// function. Shard and Trace are worker-private (like TrialCtx); Heat and BW
// hold one trial-private shard per trial in the lane, indexed like the lane's
// seeds, so the merged heatmap and bandwidth profile stay worker-count
// independent under CI early stop exactly as in Run.
type BatchCtx struct {
	Shard *metrics.Registry
	Trace *tracing.Tracer
	// Heat is nil when heatmaps are off; otherwise Heat[i] is the private
	// shard of trial start+i.
	Heat []*heatmap.Collector
	// BW is nil when bandwidth profiling is off; otherwise BW[i] is the
	// private shard of trial start+i.
	BW []*bwprofile.Recorder
}

// BatchFn executes one lane of up to LaneWidth consecutive trials. start is
// the first trial index; seeds[i] is TrialSeed(cellSeed, start+i); out[i]
// must be filled with trial start+i's outcome. The same determinism rules as
// Run's fn apply: all randomness from the per-trial seeds, no shared mutable
// state across lanes beyond read-only tables and worker-private scratch.
type BatchFn func(start int, seeds []uint64, ctx BatchCtx, out []Outcome)

// RunBatch is Run for lane-batched trial functions: workers claim lanes of
// LaneWidth consecutive trials instead of single trials, letting fn amortize
// per-trial setup (schedule compiles, decoder scratch) and bit-slice
// per-trial state across a lane. Both runners share one pool and one
// reduction, so everything derived from outcomes — Result, CI early stop,
// heat and bandwidth merges, the trial-order Sink — is identical to Run's,
// and a deterministic fn yields byte-identical ledgers for any worker count
// and for either runner (pinned by TestRunBatchMatchesRunObserved and the
// core scalar-vs-batched equivalence tests).
//
// Observers.Prior is honoured at trial granularity: lanes tile
// [len(Prior), trials) in LaneWidth steps, so a resumed cell executes
// exactly its unrecorded trials even when len(Prior) is not a LaneWidth
// multiple. Outcomes are pure functions of TrialSeed(cellSeed, t), so where
// a lane starts cannot change any of them.
//
// Observational differences from Run are confined to wall-clock
// instruments: the mc.trial.ns histogram observes the lane duration amortized
// per trial, and under CI early stop whole in-flight lanes (up to LaneWidth-1
// overrun trials per worker, rather than one) may execute past the stop point
// before workers observe it; the overrun is discarded from the Result either
// way.
func RunBatch(trials, workers int, cellSeed uint64, reg *metrics.Registry, tr *tracing.Tracer,
	obs Observers, fn BatchFn) Result {
	return run(trials, workers, LaneWidth, cellSeed, reg, tr, obs, fn)
}
