package noise

import (
	"math/rand"

	"quest/internal/clifford"
)

// Replayer reproduces an Injector's fault stream without a tableau. Each
// method performs exactly the RNG draws of the corresponding Injector
// channel — same comparisons, same Intn ranges, same order — and reports the
// sampled fault instead of applying it, so a batched Monte-Carlo engine can
// replay the scalar engine's per-trial fault sequence bit-for-bit while
// propagating the faults through a precomputed Pauli frame.
//
// Determinism contract: calling Replayer methods in the order an
// ExecutionUnit's Fire loop would call the Injector (ascending qubit per
// word, two-qubit draws at the control) yields the identical fault pattern
// for the identical seed. TestReplayerMatchesInjector pins this.
type Replayer struct {
	model Model
	src   *fastSource
	rng   *rand.Rand
}

// NewReplayer returns a replayer using the given model and seed — the same
// (model, seed) pair handed to NewInjector names the same fault stream.
func NewReplayer(m Model, seed int64) *Replayer {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	src := new(fastSource)
	src.Seed(seed)
	return &Replayer{model: m, src: src, rng: rand.New(src)}
}

// Reset rebinds the replayer to a model and rewinds it onto a fresh stream,
// reusing the underlying source (Seed reinitializes it to exactly the state
// a fresh rand.NewSource(seed) would have) so pooled scratch pays no
// per-trial RNG allocation. The source seeds by jump-ahead (source.go), in
// about a quarter of math/rand's time.
func (r *Replayer) Reset(m Model, seed int64) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	r.model = m
	r.src.Seed(seed)
}

// Idle samples the idle/decoherence channel. ok reports whether a fault
// occurred; p is the sampled Pauli.
func (r *Replayer) Idle() (p clifford.Pauli, ok bool) {
	if r.rng.Float64() < r.model.Idle {
		return clifford.Pauli(1 + r.rng.Intn(3)), true
	}
	return clifford.PauliI, false
}

// AfterGate1 samples the one-qubit gate error channel.
func (r *Replayer) AfterGate1() (p clifford.Pauli, ok bool) {
	if r.rng.Float64() < r.model.Gate1 {
		return clifford.Pauli(1 + r.rng.Intn(3)), true
	}
	return clifford.PauliI, false
}

// AfterGate2 samples the two-qubit depolarizing channel: pa lands on the
// control, pb on the target. Either may be PauliI (but not both).
func (r *Replayer) AfterGate2() (pa, pb clifford.Pauli, ok bool) {
	if r.rng.Float64() >= r.model.Gate2 {
		return clifford.PauliI, clifford.PauliI, false
	}
	k := 1 + r.rng.Intn(15) // 4*pa+pb, excluding (I,I)
	return clifford.Pauli(k >> 2), clifford.Pauli(k & 3), true
}

// AfterPrep samples the preparation error channel: a Z flips |+>, an X
// flips |0>.
func (r *Replayer) AfterPrep(basisX bool) (p clifford.Pauli, ok bool) {
	if r.rng.Float64() >= r.model.Prep {
		return clifford.PauliI, false
	}
	if basisX {
		return clifford.PauliZ, true
	}
	return clifford.PauliX, true
}

// FlipMeasurement samples the classical measurement-flip channel.
func (r *Replayer) FlipMeasurement() bool {
	return r.rng.Float64() < r.model.Meas
}
