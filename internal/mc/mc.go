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

// wallClock is the engine's single wall-clock read. It feeds only the
// mc.worker_busy_ns gauge and the mc.trial.ns latency histogram; seeds and
// simulated time derive from the experiment seed via the SplitMix64 mixers,
// never from here.
func wallClock() time.Time {
	return time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
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
// drains); the Wilson interval is computed over exactly those counts. Under
// CI early stop the snapshots instead report the trial-ordered frontier of
// consecutive completed trials, so Completed never exceeds the effective
// trial count even when in-flight workers execute overrun trials. The
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
	// Progress, when non-nil, is called every ProgressEvery completed
	// trials (default trials/100, min 1) and once more with Done=true
	// after the pool drains. Calls are serialized but may come from worker
	// goroutines; keep the sink fast.
	Progress      func(Progress)
	ProgressEvery int

	// CIWidth > 0 enables adaptive early stop: the run ends at the first
	// trial count n ≥ MinTrials (default 10) whose prefix of trial-ordered
	// outcomes has a 95% Wilson interval no wider than CIWidth. The stop
	// decision is a pure function of trial-ordered outcomes — a frontier
	// over consecutive completed trials, never completion order — so the
	// effective trial count, Result and ledger are identical for any
	// worker count. Workers may execute a few trials beyond the stop
	// point before observing it; those outcomes are discarded from the
	// Result (but metrics/tracing shards, which observe execution, still
	// see them).
	CIWidth   float64
	MinTrials int

	// Heat, when non-nil, gives every trial a private shard (Heat.NewShard)
	// via BatchCtx; shards of the effective trials are merged into Heat in
	// trial order after the pool drains.
	Heat *heatmap.Collector

	// BW, when non-nil, gives every trial a private bandwidth-profile shard
	// (BW.NewShard) via BatchCtx; shards of the effective trials are merged
	// into BW in trial order after the pool drains, so the quest-bw/1
	// waveform bytes are identical for any worker count.
	BW *bwprofile.Recorder

	// Sink, when non-nil, receives every effective trial's outcome in
	// trial order after the pool drains — the ledger writer's feed. It
	// runs on the caller's goroutine.
	Sink func(trial int, seed uint64, out Outcome)
}

// defaultMinStopTrials floors the CI-stop rule: Wilson intervals over a
// handful of trials are wide but not infinitely so, and stopping a cell on
// three lucky trials would be statistics malpractice.
const defaultMinStopTrials = 10

// stopState is the CI-convergence early-stop tracker. Workers report each
// finished trial; under the mutex a frontier advances over *consecutive*
// completed trials in trial order, maintaining the prefix failure count, and
// the stop rule fires at the first frontier position n ≥ minTrials whose
// Wilson interval is narrower than width. Because the frontier only ever
// consumes trial-ordered prefixes, the decision is a pure function of
// trial-ordered outcomes — completion order and worker count cannot change
// it.
type stopState struct {
	// stopAt bounds trial claiming: the trial budget until the frontier
	// fires, then the effective trial count. Read lock-free by workers.
	stopAt      atomic.Int64
	mu          sync.Mutex
	width       float64
	minTrials   int
	done        []bool
	fails       []bool
	frontier    int
	prefixFails int
	stopped     bool
	stopN       int
}

// newStopState builds the tracker, or returns nil when CI-stop is off.
func newStopState(width float64, minTrials, trials int) *stopState {
	if width <= 0 {
		return nil
	}
	if minTrials <= 0 {
		minTrials = defaultMinStopTrials
	}
	st := &stopState{
		width: width, minTrials: minTrials,
		done: make([]bool, trials), fails: make([]bool, trials),
	}
	st.stopAt.Store(int64(trials))
	return st
}

// observe records trial t's outcome and advances the frontier; on stop it
// publishes the bound through stopAt so workers cease claiming new trials.
func (st *stopState) observe(t int, fail bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stopped {
		return
	}
	st.done[t] = true
	st.fails[t] = fail
	for st.frontier < len(st.done) && st.done[st.frontier] {
		if st.fails[st.frontier] {
			st.prefixFails++
		}
		st.frontier++
		if n := st.frontier; n >= st.minTrials {
			lo, hi := Wilson(st.prefixFails, n, 1.96)
			if hi-lo <= st.width {
				st.stopped = true
				st.stopN = n
				st.stopAt.Store(int64(n))
				return
			}
		}
	}
}

// snapshot returns the trial-ordered frontier and its prefix failure count.
// The frontier is monotone and, once the stop rule fires, frozen at the
// effective trial count — which is what makes it safe to publish as live
// progress: it can never exceed the final Done snapshot.
func (st *stopState) snapshot() (completed, failures int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.frontier, st.prefixFails
}

// progressState throttles and serializes the live-progress sink.
type progressState struct {
	mu        sync.Mutex
	fn        func(Progress)
	every     int
	completed int
	failures  int
	// st is the CI-stop tracker when early stop is active, nil otherwise.
	// With it set, emitted snapshots report the trial-ordered frontier
	// instead of raw completion counts: workers keep executing a few
	// overrun trials after the stop point, and counting those would let an
	// intermediate Completed exceed the final Done count (the stream would
	// run backwards).
	st *stopState
}

// newProgressState builds the throttle, or returns nil when the sink is off.
func newProgressState(fn func(Progress), every, trials int, st *stopState) *progressState {
	if fn == nil {
		return nil
	}
	if every <= 0 {
		every = trials / 100
		if every < 1 {
			every = 1
		}
	}
	return &progressState{fn: fn, every: every, st: st}
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
	completed, failures := ps.completed, ps.failures
	if ps.st != nil {
		completed, failures = ps.st.snapshot()
		if completed == 0 {
			return // nothing trial-ordered to report yet
		}
	}
	lo, hi := Wilson(failures, completed, 1.96)
	ps.fn(Progress{Completed: completed, Failures: failures, WilsonLo: lo, WilsonHi: hi})
}

// LaneWidth is the number of trials a lane packs — one trial per bit of a
// uint64, so batched engines combine noise masks and syndrome lanes with
// single word ops.
const LaneWidth = 64

// BatchCtx carries the per-lane observation hooks into a trial function.
// Shard and Trace are worker-private; Heat and BW hold one trial-private
// shard per trial in the lane, indexed like the lane's seeds, so the merged
// heatmap and bandwidth profile stay worker-count independent even under CI
// early stop, where different worker counts execute different overrun
// trials.
type BatchCtx struct {
	// Shard is the worker-private metrics registry (nil when metrics off).
	Shard *metrics.Registry
	// Trace is the worker-private tracer shard (nil when tracing off).
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
// reg and tr, when non-nil, give every worker a private metrics registry
// (ctx.Shard) and tracer (ctx.Trace, sized like tr), merged into them in
// worker order after the pool drains. Counters, fixed-bucket histograms and
// the canonically sorted trace export are independent of how lanes were
// distributed, so only the wall-clock instruments reflect this particular
// run: the "mc.trials_per_sec" and "mc.worker_utilization" gauges, and the
// mc.trial.ns histogram, which observes each lane's duration amortized per
// trial. obs adds live progress, CI early stop, per-trial heat and bandwidth
// shards and the trial-order outcome Sink. Under CI early stop whole
// in-flight lanes (up to LaneWidth-1 overrun trials per worker) may execute
// past the stop point before workers observe it; the overrun is discarded
// from the Result. Instruments observe the computation; they never feed
// back into it.
//
// With nil reg and tr and a zero obs, fn sees a zero BatchCtx. Every local
// the worker closure captures is assigned exactly once, and observer state
// is nil when its hook is off, so the closure captures plain values rather
// than heap cells and the unobserved path allocates nothing per trial
// (pinned by TestRunAllocs).
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
	shards := make([]*metrics.Registry, workers)
	traces := makeTraceShards(tr, workers)
	st := newStopState(obs.CIWidth, obs.MinTrials, trials)
	prog := newProgressState(obs.Progress, obs.ProgressEvery, trials, st)
	heatParent := obs.Heat
	heatShards := makeHeatShards(heatParent, trials)
	bwParent := obs.BW
	bwShards := makeBWShards(bwParent, trials)
	busyNs := make([]int64, workers) // per-worker time spent inside fn
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
			seeds := make([]uint64, LaneWidth)
			var heats []*heatmap.Collector
			var bws []*bwprofile.Recorder
			for {
				l := int(nextLane.Add(1)) - 1
				if l >= lanes {
					return
				}
				lo := l * LaneWidth
				if st != nil && lo >= int(st.stopAt.Load()) {
					return
				}
				n := min(LaneWidth, trials-lo)
				for i := 0; i < n; i++ {
					seeds[i] = TrialSeed(cellSeed, lo+i)
				}
				// Gate on the parents, not the shard slices: they are non-nil
				// together, and a gate on the receiver itself keeps the off
				// path one branch, as TestRunAllocs pins.
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
				if bwParent != nil {
					if bws == nil {
						bws = make([]*bwprofile.Recorder, LaneWidth)
					}
					bws = bws[:n]
					for i := range bws {
						bws[i] = bwParent.NewShard()
						bwShards[lo+i] = bws[i]
					}
				}
				out := outcomes[lo : lo+n]
				t0 := wallClock()
				fn(lo, seeds[:n], BatchCtx{Shard: shard, Trace: trace, Heat: heats, BW: bws}, out)
				// Capture the duration once: busyNs (worker utilization) and
				// the mc.trial.ns histogram must observe the same value, or
				// the two can never reconcile.
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
	// effective is the trial-order prefix the Result covers: the whole
	// budget, or the CI-stop point. The frontier only fires once every trial
	// before it is done, so every outcome and shard below the cut was
	// executed even though lanes complete out of order. Trials executed past
	// the stop point by in-flight workers are discarded from the Result (and
	// from the shard merges and sink below), which is what keeps everything
	// derived from outcomes worker-count independent.
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
		if elapsed > 0 {
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
	if bwParent != nil {
		for _, bs := range bwShards[:effective] {
			bwParent.Merge(bs)
		}
	}
	if obs.Sink != nil {
		for t, out := range outcomes[:effective] {
			obs.Sink(t, TrialSeed(cellSeed, t), out)
		}
	}
	if prog != nil {
		prog.mu.Lock() // pairs with worker emits; also makes -race happy
		prog.fn(Progress{Completed: effective, Failures: res.Failures,
			WilsonLo: res.WilsonLo, WilsonHi: res.WilsonHi, Done: true})
		prog.mu.Unlock()
	}
	return res
}

// makeHeatShards builds the per-trial heat shard store, or returns nil when
// heatmaps are off. Shards are per *trial*, not per worker: under CI early
// stop different worker counts execute different overrun trials, and only a
// trial-indexed store lets the merge discard exactly the overrun.
func makeHeatShards(heat *heatmap.Collector, trials int) []*heatmap.Collector {
	if heat == nil {
		return nil
	}
	return make([]*heatmap.Collector, trials)
}

// makeBWShards builds the per-trial bandwidth-profile shard store, or
// returns nil when profiling is off. Per-trial for the same CI-early-stop
// reason as makeHeatShards: the merge must discard exactly the overrun
// trials.
func makeBWShards(bw *bwprofile.Recorder, trials int) []*bwprofile.Recorder {
	if bw == nil {
		return nil
	}
	return make([]*bwprofile.Recorder, trials)
}

// makeTraceShards builds one private Tracer per worker, each sized like the
// merge target, or returns nil when tracing is off.
func makeTraceShards(tr *tracing.Tracer, workers int) []*tracing.Tracer {
	if tr == nil {
		return nil
	}
	traces := make([]*tracing.Tracer, workers)
	for w := range traces {
		traces[w] = tracing.New(tr.Capacity())
	}
	return traces
}
