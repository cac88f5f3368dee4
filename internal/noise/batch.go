package noise

import "quest/internal/clifford"

// Replayer reproduces an Injector's fault stream without a tableau. It
// draws through the same sampler (sampler.go) — same comparisons, same Intn
// ranges, same order — and reports the sampled fault instead of applying
// it, so a batched Monte-Carlo engine can replay the scalar engine's
// per-trial fault sequence bit-for-bit while propagating the faults through
// a precomputed Pauli frame.
//
// Determinism contract: scanning the site sequence an execution unit's
// compiled words draw (ascending qubit per word, two-qubit draws at the
// control) with Next and Fault yields the fault pattern an Injector scanning
// it with Next and Inject applies, for the identical seed.
// TestReplayerMatchesInjector pins this.
type Replayer struct {
	s sampler
}

// NewReplayer returns a replayer using the given model and seed — the same
// (model, seed) pair handed to NewInjector names the same fault stream.
func NewReplayer(m Model, seed int64) *Replayer {
	r := new(Replayer)
	r.s.init(m, seed)
	return r
}

// Bind validates m and derives its channel thresholds; the stream position
// is kept. A pooled engine binds once per model, then reseeds per trial.
func (r *Replayer) Bind(m Model) { r.s.bind(m) }

// Reseed rewinds the replayer onto the stream rand.NewSource(seed) starts,
// reusing the underlying source (Seed reinitializes it in place) so pooled
// scratch pays no per-trial RNG allocation. The source seeds by jump-ahead
// (source.go): over 8 alternating runs on a 2.1 GHz Xeon VM,
// BenchmarkReseed reads 0.48–0.70 µs on the AVX2 kernel and 1.9–3.1 µs on
// the Go loop, against 10.9–11.4 µs for math/rand's own Seed.
func (r *Replayer) Reseed(seed int64) { r.s.src.Seed(seed) }

// Reset rebinds the replayer to a model and rewinds it onto a fresh stream:
// Bind, then Reseed.
func (r *Replayer) Reset(m Model, seed int64) {
	r.Bind(m)
	r.Reseed(seed)
}

// Next returns the index of the first site in chans[from:] whose channel
// fires, or len(chans) if none does. It draws exactly what scanning each
// site on its own would, so a caller that handles each hit with Fault
// before asking for the next replays the stream site by site.
func (r *Replayer) Next(chans []Channel, from int) int { return r.s.next(chans, from) }

// Fault draws the Paulis of a site of channel ch that Next reported fired:
// pa on the site's qubit (the control, for ChanGate2), pb on a two-qubit
// site's target. A ChanMeas hit is a classical flip and draws nothing.
func (r *Replayer) Fault(ch Channel, basisX bool) (pa, pb clifford.Pauli) {
	return r.s.fault(ch, basisX)
}
