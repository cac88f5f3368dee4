package distill

import (
	"math"
	"testing"

	"quest/internal/isa"
)

func TestRoundOutputError(t *testing.T) {
	if got := RoundOutputError(1e-3); math.Abs(got-3.5e-8) > 1e-12 {
		t.Errorf("35p³ at 1e-3 = %v", got)
	}
	if got := RoundOutputError(0.9); got != 1 {
		t.Errorf("saturated output = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative pin accepted")
		}
	}()
	RoundOutputError(-0.1)
}

func TestRoundsNeeded(t *testing.T) {
	// Raw error 1e-3, target 1e-15: round 1 → 3.5e-8, round 2 → 1.5e-21.
	r, err := RoundsNeeded(1e-3, 1e-15)
	if err != nil || r != 2 {
		t.Errorf("rounds = %d (%v), want 2", r, err)
	}
	r, err = RoundsNeeded(1e-3, 1e-6)
	if err != nil || r != 1 {
		t.Errorf("rounds = %d (%v), want 1", r, err)
	}
	r, err = RoundsNeeded(1e-9, 1e-6)
	if err != nil || r != 0 {
		t.Errorf("already-good input: rounds = %d (%v)", r, err)
	}
	// Above threshold (p ≥ 1/√35 ≈ 0.169): cannot converge.
	if _, err := RoundsNeeded(0.3, 1e-6); err == nil {
		t.Error("above-threshold input accepted")
	}
	if _, err := RoundsNeeded(0.1, 0); err == nil {
		t.Error("zero target accepted")
	}
}

func TestOutputErrorAfterMatchesRoundsNeeded(t *testing.T) {
	for _, pin := range []float64{1e-2, 1e-3, 1e-4} {
		for _, target := range []float64{1e-8, 1e-12, 1e-20} {
			r, err := RoundsNeeded(pin, target)
			if err != nil {
				t.Fatalf("pin=%v target=%v: %v", pin, target, err)
			}
			if got := OutputErrorAfter(pin, r); got > target {
				t.Errorf("pin=%v: after %d rounds error %v > target %v", pin, r, got, target)
			}
			if r > 0 {
				if got := OutputErrorAfter(pin, r-1); got <= target {
					t.Errorf("pin=%v: %d rounds already sufficed", pin, r-1)
				}
			}
		}
	}
}

func TestRawStateError(t *testing.T) {
	if got := RawStateError(1e-4); got != 1e-3 {
		t.Errorf("raw error = %v", got)
	}
	if got := RawStateError(0.2); got != 0.5 {
		t.Errorf("saturated raw error = %v", got)
	}
}

func TestRoundCircuitShape(t *testing.T) {
	prog := RoundCircuit()
	// Paper: "A typical distillation algorithm has 100 to 200 logical
	// instructions."
	if len(prog) < 100 || len(prog) > 200 {
		t.Fatalf("round circuit = %d instructions, want 100..200", len(prog))
	}
	if RoundInstructionCount != len(prog) {
		t.Error("RoundInstructionCount stale")
	}
	counts := map[isa.LogicalOpcode]int{}
	for _, in := range prog {
		counts[in.Op]++
	}
	if counts[isa.LT] != InputsPerRound {
		t.Errorf("T gates = %d, want %d (transversal)", counts[isa.LT], InputsPerRound)
	}
	if counts[isa.LPrepPlus] != InputsPerRound {
		t.Errorf("preps = %d", counts[isa.LPrepPlus])
	}
	if counts[isa.LMeasX] != InputsPerRound {
		t.Errorf("X measurements = %d", counts[isa.LMeasX])
	}
	if counts[isa.LCNOT] == 0 {
		t.Error("no encoding CNOTs")
	}
	// Deterministic: two generations identical.
	again := RoundCircuit()
	for i := range prog {
		if prog[i] != again[i] {
			t.Fatalf("instruction %d differs between generations", i)
		}
	}
	// Every instruction encodes and round-trips (cacheable as raw bytes).
	for i, in := range prog {
		got, err := isa.DecodeLogical(in.Encode())
		if err != nil || got != in {
			t.Fatalf("instruction %d does not round-trip: %v", i, err)
		}
	}
}

func TestInstructionsPerStateRecursion(t *testing.T) {
	c0 := InstructionsPerState(0)
	c1 := InstructionsPerState(1)
	c2 := InstructionsPerState(2)
	if c0 != 0 {
		t.Errorf("cost(0) = %v", c0)
	}
	if c1 != float64(RoundInstructionCount) {
		t.Errorf("cost(1) = %v", c1)
	}
	if c2 != 15*c1+float64(RoundInstructionCount) {
		t.Errorf("cost(2) = %v", c2)
	}
}

func TestFactoryPipeline(t *testing.T) {
	f := &Factory{Rounds: 2, LatencyRounds: 5}
	total := 0
	for i := 0; i < 50; i++ {
		total += f.Tick()
	}
	if total != 10 || f.Produced() != 10 {
		t.Errorf("factory produced %d states over 50 rounds, want 10", total)
	}
	bad := &Factory{}
	defer func() {
		if recover() == nil {
			t.Error("zero-latency factory ticked")
		}
	}()
	bad.Tick()
}

func TestFactoriesNeeded(t *testing.T) {
	// Demand 0.5 states/round, latency 10 → 5 factories.
	if got := FactoriesNeeded(0.5, 10); got != 5 {
		t.Errorf("factories = %d, want 5", got)
	}
	if got := FactoriesNeeded(0, 10); got != 0 {
		t.Errorf("zero demand = %d factories", got)
	}
	// The provisioned fleet must actually sustain the demand.
	n := FactoriesNeeded(0.7, 13)
	fleet := make([]*Factory, n)
	for i := range fleet {
		fleet[i] = &Factory{LatencyRounds: 13}
	}
	produced := 0
	const rounds = 1300
	for r := 0; r < rounds; r++ {
		for _, f := range fleet {
			produced += f.Tick()
		}
	}
	if float64(produced) < 0.7*rounds {
		t.Errorf("fleet of %d produced %d over %d rounds, demand %v", n, produced, rounds, 0.7*rounds)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative demand accepted")
		}
	}()
	FactoriesNeeded(-1, 10)
}

func TestLogicalQubitsPerFactory(t *testing.T) {
	if got := LogicalQubitsPerFactory(2); got != 32 {
		t.Errorf("2-round factory qubits = %d, want 32", got)
	}
	if got := LogicalQubitsPerFactory(0); got != 16 {
		t.Errorf("clamped factory qubits = %d, want 16", got)
	}
}
