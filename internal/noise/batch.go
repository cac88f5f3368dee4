package noise

import "quest/internal/clifford"

// Replayer reproduces an Injector's fault stream without a tableau. It
// draws through the same sampler (sampler.go) — same comparisons, same Intn
// ranges, same order — and reports the sampled fault instead of applying
// it, so a batched Monte-Carlo engine can replay the scalar engine's
// per-trial fault sequence bit-for-bit while propagating the faults through
// a precomputed Pauli frame.
//
// Determinism contract: calling Replayer methods in the order an
// ExecutionUnit's Fire loop would call the Injector (ascending qubit per
// word, two-qubit draws at the control) yields the identical fault pattern
// for the identical seed. TestReplayerMatchesInjector pins this. Next scans
// a whole site sequence the same way, handing back only the sites that
// fire.
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
// (source.go), in about a quarter of math/rand's time.
func (r *Replayer) Reseed(seed int64) { r.s.src.Seed(seed) }

// Reset rebinds the replayer to a model and rewinds it onto a fresh stream:
// Bind, then Reseed.
func (r *Replayer) Reset(m Model, seed int64) {
	r.Bind(m)
	r.Reseed(seed)
}

// Next returns the index of the first site in chans[from:] whose channel
// fires, or len(chans) if none does. It draws exactly what sampling each
// site in turn would, so a caller that handles each hit with Fault before
// asking for the next replays the per-site stream.
func (r *Replayer) Next(chans []Channel, from int) int { return r.s.next(chans, from) }

// Fault draws the Paulis of a site of channel ch that Next reported fired:
// pa on the site's qubit (the control, for ChanGate2), pb on a two-qubit
// site's target. A ChanMeas hit is a classical flip and draws nothing.
func (r *Replayer) Fault(ch Channel, basisX bool) (pa, pb clifford.Pauli) {
	return r.s.fault(ch, basisX)
}

// Idle samples the idle/decoherence channel. ok reports whether a fault
// occurred; p is the sampled Pauli.
func (r *Replayer) Idle() (p clifford.Pauli, ok bool) {
	p, _, ok = r.s.sample(ChanIdle, false)
	return p, ok
}

// AfterGate1 samples the one-qubit gate error channel.
func (r *Replayer) AfterGate1() (p clifford.Pauli, ok bool) {
	p, _, ok = r.s.sample(ChanGate1, false)
	return p, ok
}

// AfterGate2 samples the two-qubit depolarizing channel: pa lands on the
// control, pb on the target. Either may be PauliI (but not both).
func (r *Replayer) AfterGate2() (pa, pb clifford.Pauli, ok bool) {
	return r.s.sample(ChanGate2, false)
}

// AfterPrep samples the preparation error channel: a Z flips |+>, an X
// flips |0>.
func (r *Replayer) AfterPrep(basisX bool) (p clifford.Pauli, ok bool) {
	p, _, ok = r.s.sample(ChanPrep, basisX)
	return p, ok
}

// FlipMeasurement samples the classical measurement-flip channel.
func (r *Replayer) FlipMeasurement() bool {
	_, _, ok := r.s.sample(ChanMeas, false)
	return ok
}
