// Package noise models the error processes of a superconducting quantum
// substrate: per-sub-cycle decoherence on idle qubits, gate infidelity on
// operated qubits, and classical measurement flips. Errors are Pauli-twirled
// (the standard approximation under which stabilizer simulation of QECC is
// exact), so each fault is an X, Y or Z applied at a circuit location.
//
// All randomness flows through an explicit seeded source so that entire
// machine simulations are reproducible: the same seed yields the same fault
// pattern, syndrome stream and decoder workload.
package noise

import (
	"fmt"

	"quest/internal/clifford"
)

// Model holds the per-location fault probabilities. The paper assumes a
// physical error rate of 1e-4 per QECC cycle location for its headline
// numbers and sweeps 1e-3..1e-5 in Figure 15; the same knobs appear here.
type Model struct {
	// Idle is the probability of a depolarizing fault on a qubit that
	// receives an Idle µop for one sub-cycle (decoherence).
	Idle float64
	// Gate1 is the depolarizing fault probability after a one-qubit gate.
	Gate1 float64
	// Gate2 is the two-qubit depolarizing fault probability after a CNOT/CZ;
	// each fault picks one of the 15 non-identity two-qubit Paulis.
	Gate2 float64
	// Meas is the probability that a measurement outcome bit is reported
	// flipped (the projected state is still the reported one's complement).
	Meas float64
	// Prep is the probability that a preparation leaves the orthogonal state.
	Prep float64
}

// Uniform returns a model in which every location fails with probability p,
// the convention the paper uses when quoting a single "error rate".
func Uniform(p float64) Model {
	return Model{Idle: p, Gate1: p, Gate2: p, Meas: p, Prep: p}
}

// Validate checks all probabilities are in [0,1]; NaN is not.
func (m Model) Validate() error {
	for _, f := range []struct {
		name string
		p    float64
	}{{"Idle", m.Idle}, {"Gate1", m.Gate1}, {"Gate2", m.Gate2}, {"Meas", m.Meas}, {"Prep", m.Prep}} {
		if !(f.p >= 0 && f.p <= 1) {
			return fmt.Errorf("noise: %s probability %v outside [0,1]", f.name, f.p)
		}
	}
	return nil
}

// Fault records a single injected Pauli error, for test introspection and
// decoder ground-truthing.
type Fault struct {
	Cycle    int
	SubCycle int
	Qubit    int
	Pauli    clifford.Pauli
}

// Injector draws faults from a Model and applies them to a tableau, keeping a
// log of every injected fault. The zero value is unusable; construct with
// NewInjector.
type Injector struct {
	s   sampler
	log []Fault

	cycle, subCycle int
}

// NewInjector returns an injector using the given model and seed. Its
// stream is math/rand's: rand.NewSource(seed) drawn through the sampler
// (sampler.go).
func NewInjector(m Model, seed int64) *Injector {
	in := new(Injector)
	in.s.init(m, seed)
	return in
}

// Model returns the injector's noise model.
func (in *Injector) Model() Model { return in.s.model }

// SetLocation updates the (cycle, sub-cycle) stamp recorded on faults.
func (in *Injector) SetLocation(cycle, subCycle int) {
	in.cycle, in.subCycle = cycle, subCycle
}

// Log returns the injected fault log in injection order.
func (in *Injector) Log() []Fault { return in.log }

// ClearLog discards the fault log (the injector state is otherwise kept).
func (in *Injector) ClearLog() { in.log = in.log[:0] }

func (in *Injector) inject(t *clifford.Tableau, q int, p clifford.Pauli) {
	t.ApplyPauli(q, p)
	in.log = append(in.log, Fault{Cycle: in.cycle, SubCycle: in.subCycle, Qubit: q, Pauli: p})
}

// Idle applies the idle/decoherence channel to qubit q.
func (in *Injector) Idle(t *clifford.Tableau, q int) {
	if p, _, ok := in.s.sample(ChanIdle, false); ok {
		in.inject(t, q, p)
	}
}

// AfterGate1 applies the one-qubit gate error channel to qubit q.
func (in *Injector) AfterGate1(t *clifford.Tableau, q int) {
	if p, _, ok := in.s.sample(ChanGate1, false); ok {
		in.inject(t, q, p)
	}
}

// AfterGate2 applies the two-qubit gate error channel to qubits a and b,
// choosing uniformly among the 15 non-identity two-qubit Paulis.
func (in *Injector) AfterGate2(t *clifford.Tableau, a, b int) {
	pa, pb, ok := in.s.sample(ChanGate2, false)
	if !ok {
		return
	}
	if pa != clifford.PauliI {
		in.inject(t, a, pa)
	}
	if pb != clifford.PauliI {
		in.inject(t, b, pb)
	}
}

// AfterPrep applies the preparation error channel: with probability Prep the
// prepared qubit is flipped to the orthogonal state. basisX selects which
// Pauli flips it (Z flips |+>, X flips |0>).
func (in *Injector) AfterPrep(t *clifford.Tableau, q int, basisX bool) {
	if p, _, ok := in.s.sample(ChanPrep, basisX); ok {
		in.inject(t, q, p)
	}
}

// FlipMeasurement reports whether a measurement outcome should be classically
// flipped. Measurement flips are recorded in the log with Pauli I to keep the
// ground truth complete without disturbing the tableau.
func (in *Injector) FlipMeasurement(q int) bool {
	if _, _, ok := in.s.sample(ChanMeas, false); !ok {
		return false
	}
	in.log = append(in.log, Fault{Cycle: in.cycle, SubCycle: in.subCycle, Qubit: q, Pauli: clifford.PauliI})
	return true
}
