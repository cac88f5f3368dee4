// Package mc is the repository's parallel Monte-Carlo trial engine. Every
// statistical experiment — the threshold sweep, the machine-level memory
// experiment, the windowed-decoder validation — is "run N independent noisy
// trials, count failures", and decode throughput is exactly what gates
// statistical confidence (cf. the decoder micro-architectures of Das et al.
// and the feedback system of Liu et al.). RunBatch is its one runner: a
// worker pool that hands out lanes of LaneWidth consecutive trials and keeps
// the statistics bit-identical for any worker count:
//
//   - each trial's randomness comes only from a per-trial seed derived with
//     a SplitMix64-style mix of (experiment seed, cell parameters, trial
//     index), never from shared RNG state or scheduling order;
//   - outcomes are recorded per trial index and reduced in trial order, so
//     the returned counts, error and confidence interval do not depend on
//     which goroutine finished first.
//
// Sweep-style experiments mix their cell parameters (error rate, distance,
// rounds, ...) into the cell seed with Seed/F64 so that no two sweep cells
// replay correlated fault patterns — the seed-reuse bug this package was
// built to kill.
package mc

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// Outcome is the result of a single trial.
type Outcome struct {
	// Fail marks the trial as a failure (a logical error, a wrong readout).
	Fail bool
	// Err is a trial-level execution error (machine did not drain, bad
	// config). The first error in trial order is surfaced on the Result.
	Err error
}

// Result aggregates a run. Rate carries a Wilson score interval: with a
// handful of failures out of a few hundred trials the normal approximation
// is badly miscalibrated, while Wilson stays valid down to zero failures.
type Result struct {
	Trials   int
	Failures int
	// Rate is Failures/Trials (0 for an empty run).
	Rate float64
	// WilsonLo and WilsonHi bound Rate at 95% confidence.
	WilsonLo, WilsonHi float64
	// Err is the first trial error in trial order, nil if all trials ran.
	Err error
}

// splitmix64 is the SplitMix64 output permutation (Steele, Lea & Flood) —
// a cheap, well-mixed finalizer whose increment constant is the golden
// ratio. Used both to combine seed words and to derive sub-streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed folds any number of 64-bit words (experiment seed, cell parameters,
// indices) into one well-mixed seed. Word order matters, so Seed(a, b) and
// Seed(b, a) name different streams.
func Seed(words ...uint64) uint64 {
	s := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		s = splitmix64(s ^ w)
	}
	return s
}

// F64 maps a float parameter (an error rate, a duration) to a seed word via
// its IEEE-754 bits, so distinct sweep values give distinct streams.
func F64(p float64) uint64 { return math.Float64bits(p) }

// TrialSeed derives the seed for one trial of a cell.
func TrialSeed(cellSeed uint64, trial int) uint64 {
	return Seed(cellSeed, uint64(trial))
}

// Derive splits a trial seed into independent sub-streams (tableau RNG,
// injector RNG, ...) by lane index.
func Derive(seed uint64, lane uint64) uint64 {
	return Seed(seed, lane)
}

// wallClock is the engine's single wall-clock read, taken only when a
// registry is on. It feeds only the mc.worker_busy_ns, mc.trials_per_sec and
// mc.worker_utilization gauges and the mc.trial.ns latency histogram; seeds
// and simulated time derive from the experiment seed via the SplitMix64
// mixers, never from here.
func wallClock() time.Time {
	return time.Now()
}

// Wilson returns the Wilson score interval for k failures in n trials at
// normal quantile z (1.96 for 95%).
func Wilson(failures, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 0
	}
	n := float64(trials)
	p := float64(failures) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Progress is a snapshot handed to a progress sink while a run is in
// flight. Completed and Failures count in completion order (display only —
// they may differ between runs with different worker counts until the pool
// drains); the Wilson interval is computed over exactly those counts. The
// final call of a run carries Done=true and the trial-order-exact Result
// numbers.
type Progress struct {
	Completed          int
	Failures           int
	WilsonLo, WilsonHi float64
	Done               bool
}

// Observers bundles the optional observation hooks of RunBatch. The zero
// value observes nothing and adds nothing to the hot path.
type Observers struct {
	// Progress, when non-nil, is called every trials/100 completed trials
	// (at least every trial) and once more with Done=true after the pool
	// drains. Calls are serialized but may come from worker goroutines;
	// keep the sink fast.
	Progress func(Progress)

	// Heat, when non-nil, gives every worker a private shard
	// (Heat.NewShard) via BatchCtx, merged into Heat in worker order after
	// the pool drains.
	Heat *heatmap.Collector

	// BW, when non-nil, gives every worker a private bandwidth-profile
	// shard (BW.NewShard) via BatchCtx, merged into BW in worker order
	// after the pool drains.
	BW *bwprofile.Recorder

	// Sink, when non-nil, receives every trial's outcome in trial order
	// after the pool drains — the ledger writer's feed. It runs on the
	// caller's goroutine.
	Sink func(trial int, seed uint64, out Outcome)
}

// progressState throttles and serializes the live-progress sink.
type progressState struct {
	mu        sync.Mutex
	fn        func(Progress)
	every     int
	completed int
	failures  int
}

// newProgressState builds the throttle, or returns nil when the sink is off.
func newProgressState(fn func(Progress), trials int) *progressState {
	if fn == nil {
		return nil
	}
	return &progressState{fn: fn, every: max(trials/100, 1)}
}

func (ps *progressState) observe(fail bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.completed++
	if fail {
		ps.failures++
	}
	if ps.completed%ps.every != 0 {
		return
	}
	lo, hi := Wilson(ps.failures, ps.completed, 1.96)
	ps.fn(Progress{Completed: ps.completed, Failures: ps.failures, WilsonLo: lo, WilsonHi: hi})
}

// LaneWidth is the number of trials a lane packs — one trial per bit of a
// uint64, so batched engines combine noise masks and syndrome lanes with
// single word ops.
const LaneWidth = 64

// BatchCtx carries one worker's private observation hooks into a trial
// function; each is nil when its hook is off. A worker hands the same
// BatchCtx to every lane it runs, and RunBatch merges each hook into its
// parent in worker order after the pool drains. Every merge is a sum (the
// bandwidth profile also keeps a max), so the merged registry, trace,
// heatmap and bandwidth profile do not depend on which worker ran which
// lane.
type BatchCtx struct {
	// Shard is the worker-private metrics registry.
	Shard *metrics.Registry
	// Trace is the worker-private tracer, sized like the merge target.
	Trace *tracing.Tracer
	// Heat is the worker-private heat collector.
	Heat *heatmap.Collector
	// BW is the worker-private bandwidth-profile recorder.
	BW *bwprofile.Recorder
}

// BatchFn executes one lane of up to LaneWidth consecutive trials. start is
// the first trial index; seeds[i] is TrialSeed(cellSeed, start+i); out[i]
// must be filled with trial start+i's outcome.
type BatchFn func(start int, seeds []uint64, ctx BatchCtx, out []Outcome)

// RunBatch executes trials over a worker pool and reduces the outcomes.
// Workers claim lanes of up to LaneWidth consecutive trials tiling
// [0, trials) — lane l starts at l·LaneWidth and only the final lane may be
// short — so fn can amortize per-trial setup (schedule compiles, decoder
// scratch) and bit-slice per-trial state across a lane.
// workers <= 0 uses GOMAXPROCS; the pool never exceeds the lane count.
//
// fn must take all randomness from its lane's seeds and must not share
// mutable state across lanes (read-only tables — a compiled lattice, a
// syndrome schedule — and worker-private scratch are fine). Under those
// rules the Result is bit-identical for every worker count: failure counts
// and the first error are reduced over the trial-indexed outcome store in
// trial order after the pool drains, never in completion order.
//
// reg, tr, obs.Heat and obs.BW, when non-nil, give every worker a private
// shard of each (see BatchCtx). Counters, fixed-bucket histograms, the
// canonically sorted trace export, heat grids and bandwidth windows are
// independent of how lanes were distributed, so only the wall-clock
// instruments reflect this particular run: the "mc.trials_per_sec" and
// "mc.worker_utilization" gauges, and the mc.trial.ns histogram, which
// observes each lane's duration amortized per trial. obs also adds live
// progress and the trial-order outcome Sink. Instruments observe the
// computation; they never feed back into it.
//
// With nil reg and tr and a zero obs, fn sees a zero BatchCtx, and the
// engine reads no clock: the wall-clock instruments are reg's alone. Every
// local the worker closure captures is assigned exactly once, and observer
// state is nil when its hook is off, so the closure captures plain values
// rather than heap cells and the unobserved path allocates nothing per
// trial (pinned by TestRunAllocs).
func RunBatch(trials, workers int, cellSeed uint64, reg *metrics.Registry, tr *tracing.Tracer,
	obs Observers, fn BatchFn) Result {
	if trials <= 0 {
		return Result{}
	}
	lanes := (trials + LaneWidth - 1) / LaneWidth
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > lanes {
		workers = lanes
	}
	outcomes := make([]Outcome, trials)
	var nextLane atomic.Int64
	var wg sync.WaitGroup
	ctxs := make([]BatchCtx, workers)
	prog := newProgressState(obs.Progress, trials)
	busyNs := make([]int64, workers) // per-worker time spent inside fn
	var start time.Time
	if reg != nil {
		start = wallClock()
	}
	for w := range ctxs {
		// One shard of each parent that is on; NewShard is nil on a nil
		// parent.
		ctxs[w] = BatchCtx{Heat: obs.Heat.NewShard(), BW: obs.BW.NewShard()}
		if reg != nil {
			ctxs[w].Shard = metrics.New()
		}
		if tr != nil {
			ctxs[w].Trace = tracing.New(tr.Capacity())
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := ctxs[w]
			shard := ctx.Shard
			var trialNs *metrics.Histogram
			var nTrials, nFails *metrics.Counter
			if shard != nil {
				trialNs = shard.Histogram("mc.trial.ns", metrics.LatencyBounds())
				nTrials = shard.Counter("mc.trials")
				nFails = shard.Counter("mc.failures")
			}
			seeds := make([]uint64, LaneWidth)
			for {
				l := int(nextLane.Add(1)) - 1
				if l >= lanes {
					return
				}
				lo := l * LaneWidth
				n := min(LaneWidth, trials-lo)
				for i := 0; i < n; i++ {
					seeds[i] = TrialSeed(cellSeed, lo+i)
				}
				out := outcomes[lo : lo+n]
				var t0 time.Time
				if shard != nil {
					t0 = wallClock()
				}
				fn(lo, seeds[:n], ctx, out)
				if shard != nil {
					// Capture the duration once: busyNs (worker utilization)
					// and the mc.trial.ns histogram must observe the same
					// value, or the two can never reconcile.
					dur := time.Since(t0)
					busyNs[w] += int64(dur)
					perTrial := float64(dur) / float64(n)
					for i := 0; i < n; i++ {
						trialNs.Observe(perTrial)
					}
					nTrials.Add(uint64(n))
				}
				for _, o := range out {
					if shard != nil && o.Fail {
						nFails.Inc()
					}
					if prog != nil {
						prog.observe(o.Fail)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if reg != nil {
		elapsed := time.Since(start)
		var busy int64
		for w, ctx := range ctxs {
			reg.Merge(ctx.Shard)
			busy += busyNs[w]
		}
		reg.Gauge("mc.worker_busy_ns").Set(float64(busy))
		if elapsed > 0 {
			reg.Gauge("mc.trials_per_sec").Set(float64(trials) / elapsed.Seconds())
			reg.Gauge("mc.worker_utilization").Set(
				float64(busy) / (float64(elapsed) * float64(workers)))
		}
		reg.Gauge("mc.workers").Set(float64(workers))
	}
	for _, ctx := range ctxs {
		tr.Merge(ctx.Trace)
		obs.Heat.Merge(ctx.Heat)
		obs.BW.Merge(ctx.BW)
	}
	res := Result{Trials: trials}
	for _, out := range outcomes {
		if out.Fail {
			res.Failures++
		}
		if out.Err != nil && res.Err == nil { // trial order: first error wins
			res.Err = out.Err
		}
	}
	res.Rate = float64(res.Failures) / float64(trials)
	res.WilsonLo, res.WilsonHi = Wilson(res.Failures, trials, 1.96)
	if obs.Sink != nil {
		for t, out := range outcomes {
			obs.Sink(t, TrialSeed(cellSeed, t), out)
		}
	}
	if prog != nil {
		prog.mu.Lock() // pairs with worker emits; also makes -race happy
		prog.fn(Progress{Completed: trials, Failures: res.Failures,
			WilsonLo: res.WilsonLo, WilsonHi: res.WilsonHi, Done: true})
		prog.mu.Unlock()
	}
	return res
}
