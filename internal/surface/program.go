package surface

import (
	"fmt"

	"quest/internal/isa"
	"quest/internal/noise"
)

// NoiseSite is one noise-injection site of a compiled sub-cycle: the
// channel an execution unit's Fire loop would draw from at that position,
// on which qubit, and (for two-qubit draws) the partner the second Pauli
// lands on. The order of sites within a word is the order Fire visits them
// (ascending qubit index, two-qubit draws at the control position), which
// is exactly what lets a batched engine replay an Injector's RNG stream
// bit-for-bit without a tableau.
type NoiseSite struct {
	// Kind is the channel drawn: noise.ChanIdle on an idle qubit,
	// noise.ChanPrep after Prep0/PrepPlus, noise.ChanGate2 after a CNOT
	// (at the control) and noise.ChanMeas for a measurement flip.
	Kind  noise.Channel
	Qubit int
	// Pair is the CNOT target for a two-qubit site, -1 otherwise.
	Pair int
	// BasisX selects the preparation basis for a preparation site (|+> vs
	// |0>), which decides whether the prep fault is a Z or an X.
	BasisX bool
}

// MeasOp is one ancilla measurement of a sub-cycle.
type MeasOp struct {
	Qubit int
	IsX   bool
}

// PrepOp is one ancilla preparation of a sub-cycle.
type PrepOp struct {
	Qubit  int
	BasisX bool
}

// CNOTOp is one CNOT of a sub-cycle, recorded once (at the control).
type CNOTOp struct {
	Control, Target int
}

// ProgramWord is the decomposition of one VLIW sub-cycle into the phases a
// Pauli-frame propagator needs: measurements read the current frame, preps
// reset it, CNOTs conjugate it, and Sites lists every noise draw in Fire
// order. Because every qubit carries exactly one µop per word, the phases
// commute with the interleaved per-qubit execution order of the AWG unit —
// no gate in a word can move a fault injected by another site of the same
// word.
type ProgramWord struct {
	Meas  []MeasOp
	Preps []PrepOp
	CNOTs []CNOTOp
	Sites []NoiseSite
}

// ExtractionProgram is the schedule precompute of one QECC cycle: the
// per-word phase lists a batched Monte-Carlo engine propagates faults
// through, compiled once per cell instead of re-simulated per trial.
type ExtractionProgram struct {
	NumQubits int
	Words     []ProgramWord
}

// BuildProgram decomposes a compiled cycle (CompileCycle output) into an
// ExtractionProgram. It accepts only the µops the extraction circuit uses —
// idles, preps, CNOT pairs and measurements — and panics on anything else,
// because silently skipping an op would desynchronize the RNG replay.
func BuildProgram(lat Lattice, words []isa.VLIW) *ExtractionProgram {
	prog := &ExtractionProgram{NumQubits: lat.NumQubits(), Words: make([]ProgramWord, len(words))}
	for s, w := range words {
		pw := &prog.Words[s]
		for q, op := range w.Ops {
			switch op {
			case isa.OpIdle:
				pw.Sites = append(pw.Sites, NoiseSite{Kind: noise.ChanIdle, Qubit: q, Pair: -1})
			case isa.OpPrep0, isa.OpPrep1:
				pw.Preps = append(pw.Preps, PrepOp{Qubit: q, BasisX: false})
				pw.Sites = append(pw.Sites, NoiseSite{Kind: noise.ChanPrep, Qubit: q, Pair: -1})
			case isa.OpPrepPlus:
				pw.Preps = append(pw.Preps, PrepOp{Qubit: q, BasisX: true})
				pw.Sites = append(pw.Sites, NoiseSite{Kind: noise.ChanPrep, Qubit: q, Pair: -1, BasisX: true})
			case isa.OpMeasZ:
				pw.Meas = append(pw.Meas, MeasOp{Qubit: q})
				pw.Sites = append(pw.Sites, NoiseSite{Kind: noise.ChanMeas, Qubit: q, Pair: -1})
			case isa.OpMeasX:
				pw.Meas = append(pw.Meas, MeasOp{Qubit: q, IsX: true})
				pw.Sites = append(pw.Sites, NoiseSite{Kind: noise.ChanMeas, Qubit: q, Pair: -1})
			case isa.OpCNOTControl:
				p := w.Pairs[q]
				pw.CNOTs = append(pw.CNOTs, CNOTOp{Control: q, Target: p})
				pw.Sites = append(pw.Sites, NoiseSite{Kind: noise.ChanGate2, Qubit: q, Pair: p})
			case isa.OpCNOTTarget:
				// Executed (and drawn) from the control side.
			default:
				panic(fmt.Sprintf("surface: µop %v at qubit %d is not part of an extraction cycle", op, q))
			}
		}
	}
	return prog
}
