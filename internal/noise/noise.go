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

// Next returns the index of the first site in chans[from:] whose channel
// fires, or len(chans) if none does: the Replayer's scan over the same
// stream. A caller that applies each hit with Inject before asking for the
// next draws exactly what drawing every site in turn would.
func (in *Injector) Next(chans []Channel, from int) int { return in.s.next(chans, from) }

// Inject draws the fault of a site of channel ch that Next reported fired,
// applies it to t and logs it. The fault lands on qubit q, and for
// ChanGate2 (one of the 15 non-identity two-qubit Paulis) also on the
// partner b. basisX is a preparation site's basis: a Z flips |+>, an X
// flips |0>. A ChanMeas hit is a classical flip the caller applies to the
// reported bit; it is logged with Pauli I to keep the ground truth complete
// without disturbing the tableau.
func (in *Injector) Inject(t *clifford.Tableau, ch Channel, q, b int, basisX bool) {
	if ch == ChanMeas {
		in.log = append(in.log, Fault{Cycle: in.cycle, SubCycle: in.subCycle, Qubit: q, Pauli: clifford.PauliI})
		return
	}
	pa, pb := in.s.fault(ch, basisX)
	if pa != clifford.PauliI {
		in.inject(t, q, pa)
	}
	if pb != clifford.PauliI {
		in.inject(t, b, pb)
	}
}

func (in *Injector) inject(t *clifford.Tableau, q int, p clifford.Pauli) {
	t.ApplyPauli(q, p)
	in.log = append(in.log, Fault{Cycle: in.cycle, SubCycle: in.subCycle, Qubit: q, Pauli: p})
}
