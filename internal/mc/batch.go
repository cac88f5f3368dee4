package mc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quest/internal/heatmap"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// LaneWidth is the number of trials a batched engine packs per uint64 lane —
// one trial per bit, so noise masks and syndrome lanes combine with single
// word ops.
const LaneWidth = 64

// BatchCtx carries the per-lane observation hooks into a batched trial
// function. Shard and Trace are worker-private (like TrialCtx); Heat holds
// one trial-private shard per trial in the lane, indexed like the lane's
// seeds, so the merged heatmap stays worker-count independent under CI early
// stop exactly as in the scalar engine.
type BatchCtx struct {
	Shard *metrics.Registry
	Trace *tracing.Tracer
	// Heat is nil when heatmaps are off; otherwise Heat[i] is the private
	// shard of trial start+i.
	Heat []*heatmap.Collector
}

// BatchFn executes one lane of up to LaneWidth consecutive trials. start is
// the first trial index; seeds[i] is TrialSeed(cellSeed, start+i); out[i]
// must be filled with trial start+i's outcome. The same determinism rules as
// Run's fn apply: all randomness from the per-trial seeds, no shared mutable
// state across lanes beyond read-only tables and worker-private scratch.
type BatchFn func(start int, seeds []uint64, ctx BatchCtx, out []Outcome)

// RunBatch is RunObserved for lane-batched trial functions: workers claim
// lanes of LaneWidth consecutive trials instead of single trials, letting fn
// amortize per-trial setup (schedule compiles, decoder scratch) and bit-slice
// per-trial state across a lane. Everything derived from outcomes — Result,
// CI early stop, heat merge, the trial-order Sink — follows the scalar
// engine's semantics exactly, so a deterministic fn yields byte-identical
// ledgers for any worker count and for either engine (pinned by the core
// scalar-vs-batched equivalence tests).
//
// Observers.Prior is honoured at trial granularity: lanes tile
// [len(Prior), trials) in LaneWidth steps, so a resumed cell executes
// exactly its unrecorded trials even when len(Prior) is not a LaneWidth
// multiple. Outcomes are pure functions of TrialSeed(cellSeed, t), so where
// a lane starts cannot change any of them.
//
// Observational differences from the scalar engine are confined to wall-clock
// instruments: the mc.trial.ns histogram observes the lane duration amortized
// per trial, and under CI early stop whole in-flight lanes (up to LaneWidth-1
// overrun trials per worker, rather than one) may execute past the stop point
// before workers observe it; the overrun is discarded from the Result either
// way.
func RunBatch(trials, workers int, cellSeed uint64, reg *metrics.Registry, tr *tracing.Tracer,
	obs Observers, fn BatchFn) Result {
	if trials <= 0 {
		return Result{}
	}
	prior := len(obs.Prior)
	if prior > trials {
		prior = trials
	}
	lanes := (trials - prior + LaneWidth - 1) / LaneWidth
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > lanes {
		workers = lanes
	}
	outcomes := make([]Outcome, trials)
	copy(outcomes, obs.Prior[:prior])
	var nextLane atomic.Int64
	var wg sync.WaitGroup
	shards := make([]*metrics.Registry, workers)
	traces := makeTraceShards(tr, workers)
	st := newStopState(obs.CIWidth, obs.MinTrials, trials)
	if st != nil {
		// As in run: a converged prior prefix drops stopAt below the first
		// live trial before any worker starts, so no lane is claimed.
		for t := 0; t < prior; t++ {
			st.observe(t, outcomes[t].Fail)
		}
	}
	prog := newProgressState(obs.Progress, obs.ProgressEvery, trials, st)
	heatParent := obs.Heat
	heatShards := makeHeatShards(heatParent, trials)
	busyNs := make([]int64, workers)
	start := wallClock()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		if reg != nil {
			shards[w] = metrics.New()
		}
		go func(w int) {
			defer wg.Done()
			shard := shards[w]
			var trace *tracing.Tracer
			if traces != nil {
				trace = traces[w]
			}
			var trialNs *metrics.Histogram
			var nTrials, nFails *metrics.Counter
			if shard != nil {
				trialNs = shard.Histogram("mc.trial.ns", metrics.LatencyBounds())
				nTrials = shard.Counter("mc.trials")
				nFails = shard.Counter("mc.failures")
			}
			var seeds [LaneWidth]uint64
			var heats []*heatmap.Collector
			for {
				l := int(nextLane.Add(1)) - 1
				if l >= lanes {
					return
				}
				lo := prior + l*LaneWidth
				if st != nil && lo >= int(st.stopAt.Load()) {
					return
				}
				n := LaneWidth
				if lo+n > trials {
					n = trials - lo
				}
				for i := 0; i < n; i++ {
					seeds[i] = TrialSeed(cellSeed, lo+i)
				}
				// Gate on the parent, not the shard slice: they are non-nil
				// together, and the receiver gate is the form the nil-gating
				// contract (gateflow) can prove.
				if heatParent != nil {
					if heats == nil {
						heats = make([]*heatmap.Collector, LaneWidth)
					}
					heats = heats[:n]
					for i := range heats {
						heats[i] = heatParent.NewShard()
						heatShards[lo+i] = heats[i]
					}
				}
				out := outcomes[lo : lo+n]
				t0 := wallClock()
				fn(lo, seeds[:n], BatchCtx{Shard: shard, Trace: trace, Heat: heats}, out)
				dur := time.Since(t0)
				busyNs[w] += int64(dur)
				if shard != nil {
					perTrial := float64(dur) / float64(n)
					for i := 0; i < n; i++ {
						trialNs.Observe(perTrial)
					}
					nTrials.Add(uint64(n))
				}
				for i, o := range out {
					if shard != nil && o.Fail {
						nFails.Inc()
					}
					if st != nil {
						st.observe(lo+i, o.Fail)
					}
					if prog != nil {
						prog.observe(o.Fail)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if tr != nil {
		for _, shard := range traces {
			tr.Merge(shard)
		}
	}
	// The reduction below mirrors the scalar engine's tail exactly (see
	// run): effective is the trial-order prefix the Result covers, and the
	// CI-stop frontier only fires once every trial before it is done, so
	// every outcome and heat shard below the cut was executed even though
	// lanes complete out of order.
	effective := trials
	if st != nil && st.stopped {
		effective = st.stopN
	}
	if reg != nil {
		for _, shard := range shards {
			reg.Merge(shard)
		}
		var busy int64
		for _, b := range busyNs {
			busy += b
		}
		reg.Gauge("mc.worker_busy_ns").Set(float64(busy))
		if elapsed > 0 && workers > 0 {
			reg.Gauge("mc.trials_per_sec").Set(float64(effective) / elapsed.Seconds())
			reg.Gauge("mc.worker_utilization").Set(
				float64(busy) / (float64(elapsed) * float64(workers)))
		}
		reg.Gauge("mc.workers").Set(float64(workers))
	}
	res := Result{Trials: effective}
	for _, out := range outcomes[:effective] {
		if out.Fail {
			res.Failures++
		}
		if out.Err != nil && res.Err == nil { // trial order: first error wins
			res.Err = out.Err
		}
	}
	res.Rate = float64(res.Failures) / float64(effective)
	res.WilsonLo, res.WilsonHi = Wilson(res.Failures, effective, 1.96)
	if heatParent != nil {
		for _, hs := range heatShards[:effective] {
			heatParent.Merge(hs)
		}
	}
	if obs.Sink != nil {
		for t, out := range outcomes[:effective] {
			obs.Sink(t, TrialSeed(cellSeed, t), out)
		}
	}
	if prog != nil {
		prog.mu.Lock() // pairs with worker emits; also makes -race happy
		// Budget mirrors the scalar engine's terminal snapshot (mc.go): a
		// live display keys completion bars on Completed/Budget.
		prog.fn(Progress{Completed: effective, Failures: res.Failures, Budget: prog.budget,
			WilsonLo: res.WilsonLo, WilsonHi: res.WilsonHi, Done: true})
		prog.mu.Unlock()
	}
	return res
}
