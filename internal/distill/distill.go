// Package distill models magic-state distillation and T-factories (§5.2):
// the 15-to-1 Bravyi–Kitaev protocol's error suppression, the recursive
// multi-round cost of producing one magic state good enough for the
// application, the demand-driven factory count, and the deterministic
// logical instruction stream of one distillation round — the loop body the
// QuEST logical-instruction cache replays (§5.3).
package distill

import (
	"fmt"
	"math"

	"quest/internal/isa"
)

// The 15-to-1 protocol consumes 15 noisy T states and emits one state with
// cubically suppressed error: p_out = 35·p_in³.
const (
	InputsPerRound = 15
	suppressionC   = 35.0
)

// RoundOutputError returns the output error of one 15-to-1 round for a given
// input error rate.
func RoundOutputError(pin float64) float64 {
	if pin < 0 || pin > 1 {
		panic(fmt.Sprintf("distill: input error %v outside [0,1]", pin))
	}
	out := suppressionC * pin * pin * pin
	if out > 1 {
		return 1
	}
	return out
}

// RawStateError returns the error of an undistilled injected magic state for
// a physical error rate: injection is a short non-fault-tolerant circuit, so
// the raw state inherits roughly an order of magnitude over the physical
// rate.
func RawStateError(physRate float64) float64 {
	e := 10 * physRate
	if e > 0.5 {
		return 0.5
	}
	return e
}

// RoundsNeeded returns how many recursive 15-to-1 rounds bring a raw state
// of error pin down to at most target. It errors if the protocol cannot
// converge (pin above the distillation threshold ≈ 1/√35).
func RoundsNeeded(pin, target float64) (int, error) {
	if target <= 0 {
		return 0, fmt.Errorf("distill: non-positive target %v", target)
	}
	if pin <= target {
		return 0, nil
	}
	p := pin
	for r := 1; r <= 16; r++ {
		next := RoundOutputError(p)
		if next >= p {
			return 0, fmt.Errorf("distill: input error %v above distillation threshold", pin)
		}
		p = next
		if p <= target {
			return r, nil
		}
	}
	return 0, fmt.Errorf("distill: no convergence from %v to %v within 16 rounds", pin, target)
}

// OutputErrorAfter returns the state error after r rounds from pin.
func OutputErrorAfter(pin float64, r int) float64 {
	p := pin
	for i := 0; i < r; i++ {
		p = RoundOutputError(p)
	}
	return p
}

// RoundCircuit generates the deterministic logical instruction sequence of
// one 15-to-1 distillation round: prepare 15 + 1 qubits, encode with the
// [[15,1,3]] Reed–Muller CNOT network, apply transversal T, decode and
// measure. The sequence length (~155 instructions) matches the paper's
// "typical distillation algorithm has 100 to 200 logical instructions", and
// its deterministic control flow is exactly what makes it cacheable.
func RoundCircuit() []isa.LogicalInstr {
	var prog []isa.LogicalInstr
	emit := func(op isa.LogicalOpcode, target, arg uint8) {
		prog = append(prog, isa.LogicalInstr{Op: op, Target: target, Arg: arg})
	}
	// Initialize 15 code qubits and the output qubit.
	for q := uint8(0); q < InputsPerRound; q++ {
		emit(isa.LPrepPlus, q, 0)
	}
	emit(isa.LPrep0, InputsPerRound, 0)
	// Reed–Muller encoding network: each of the 4 generator qubits fans out
	// CNOTs to the qubits whose 4-bit index has the matching bit set.
	for g := 0; g < 4; g++ {
		ctrl := uint8(1<<g) - 1 // qubits 0,1,3,7 act as generators
		for q := uint8(0); q < InputsPerRound; q++ {
			idx := int(q) + 1 // RM(1,4) punctured: indices 1..15
			if q == ctrl || idx&(1<<g) == 0 {
				continue
			}
			emit(isa.LCNOT, ctrl, q)
		}
	}
	// Transversal T across the block.
	for q := uint8(0); q < InputsPerRound; q++ {
		emit(isa.LT, q, 0)
	}
	// Decode: Hadamards plus syndrome CNOTs onto the output qubit.
	for q := uint8(0); q < InputsPerRound; q++ {
		emit(isa.LH, q, 0)
	}
	for q := uint8(0); q < InputsPerRound; q++ {
		emit(isa.LCNOT, q, InputsPerRound)
	}
	// Measure the block to detect faults; measure-out completes the round.
	for q := uint8(0); q < InputsPerRound; q++ {
		emit(isa.LMeasX, q, 0)
	}
	emit(isa.LS, InputsPerRound, 0)
	emit(isa.LMeasZ, InputsPerRound, 0)
	return prog
}

// RoundInstructionCount is the length of RoundCircuit (computed once).
var RoundInstructionCount = len(RoundCircuit())

// InstructionsPerState returns the total logical instruction cost of one
// fully distilled magic state after r recursive rounds: each round's 15
// inputs are themselves products of the previous round, so
// cost(r) = 15·cost(r-1) + RoundInstructionCount.
func InstructionsPerState(r int) float64 {
	cost := 0.0
	for i := 0; i < r; i++ {
		cost = InputsPerRound*cost + float64(RoundInstructionCount)
	}
	return cost
}

// LogicalQubitsPerFactory is the working set of one pipelined factory: the
// 16-qubit round block times a pipeline stage per round.
func LogicalQubitsPerFactory(rounds int) int {
	if rounds < 1 {
		rounds = 1
	}
	return rounds * (InputsPerRound + 1)
}

// Factory models one pipelined T-factory: it emits one magic state every
// LatencyRounds QECC rounds once the pipeline is full.
type Factory struct {
	Rounds int
	// LatencyRounds is the QECC rounds one distillation round occupies; the
	// round circuit's instructions issue at the logical-op cadence (~d
	// rounds each), so latency ≈ RoundInstructionCount · d / ILP; callers
	// set it from their technology parameters.
	LatencyRounds int

	pipelineFill int
	produced     uint64
}

// Tick advances the factory by one QECC round, returning the number of
// magic states emitted (0 or 1).
func (f *Factory) Tick() int {
	if f.LatencyRounds <= 0 {
		panic("distill: factory with non-positive latency")
	}
	f.pipelineFill++
	if f.pipelineFill >= f.LatencyRounds {
		f.pipelineFill = 0
		f.produced++
		return 1
	}
	return 0
}

// Produced returns the cumulative output.
func (f *Factory) Produced() uint64 { return f.produced }

// Reset drains the pipeline and zeroes the cumulative output, returning the
// factory to its freshly constructed state (the configured latency is kept).
// Pooled machines call this between Monte-Carlo trials.
func (f *Factory) Reset() {
	f.pipelineFill = 0
	f.produced = 0
}

// FactoriesNeeded returns the factory count that sustains a demand of
// tPerRound magic states per QECC round, each factory emitting one state
// per latencyRounds.
func FactoriesNeeded(tPerRound float64, latencyRounds int) int {
	if tPerRound < 0 || latencyRounds <= 0 {
		panic(fmt.Sprintf("distill: invalid demand %v / latency %d", tPerRound, latencyRounds))
	}
	return int(math.Ceil(tPerRound * float64(latencyRounds)))
}
