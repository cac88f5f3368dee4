package circuits

import (
	"math/rand"
	"testing"
	"testing/quick"

	"quest/internal/clifford"
	"quest/internal/compiler"
	"quest/internal/core"
	"quest/internal/isa"
	"quest/internal/sched"
)

func TestBernsteinVaziraniProgramShape(t *testing.T) {
	secret := []bool{true, false, true, true}
	p := BernsteinVazirani(secret)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.CNOTs != 3 {
		t.Errorf("oracle CNOTs = %d, want 3 (secret weight)", s.CNOTs)
	}
	if s.ByOpcode[isa.LMeasZ] != 4 {
		t.Errorf("measurements = %d", s.ByOpcode[isa.LMeasZ])
	}
	defer func() {
		if recover() == nil {
			t.Error("oversize secret accepted")
		}
	}()
	BernsteinVazirani(make([]bool, 99))
}

// TestBernsteinVaziraniPhysicalExact: the single-query algorithm recovers
// every secret exactly on the simulated substrate.
func TestBernsteinVaziraniPhysicalExact(t *testing.T) {
	f := func(bits []bool, seed int64) bool {
		if len(bits) == 0 || len(bits) > 20 {
			return true
		}
		tb := clifford.New(len(bits)+1, rand.New(rand.NewSource(seed)))
		got := RunBernsteinVaziraniPhysical(tb, bits)
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTeleportationPhysical: the teleported qubit always reproduces the
// input state, across random measurement branches.
func TestTeleportationPhysical(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tb := clifford.New(3, rand.New(rand.NewSource(seed)))
		if got := RunTeleportationPhysical(tb, false); got != 0 {
			t.Fatalf("seed %d: teleported |0> measured %d", seed, got)
		}
		tb2 := clifford.New(3, rand.New(rand.NewSource(seed+1000)))
		if got := RunTeleportationPhysical(tb2, true); got != 1 {
			t.Fatalf("seed %d: teleported |1> measured %d", seed, got)
		}
	}
}

func TestGHZPhysicalCorrelations(t *testing.T) {
	ones := 0
	for seed := int64(0); seed < 40; seed++ {
		tb := clifford.New(6, rand.New(rand.NewSource(seed)))
		bits := RunGHZPhysical(tb, 6)
		for _, b := range bits[1:] {
			if b != bits[0] {
				t.Fatalf("seed %d: GHZ decorrelated: %v", seed, bits)
			}
		}
		ones += bits[0]
	}
	if ones == 0 || ones == 40 {
		t.Errorf("GHZ outcomes not random across seeds: %d/40 ones", ones)
	}
}

func TestQFTTCountScalesQuadratically(t *testing.T) {
	count := func(n int) int {
		p := compiler.NewProgram(n)
		QFT(p, n, 1e-3)
		return p.TCount()
	}
	c4, c8 := count(4), count(8)
	// Controlled rotations: n(n-1)/2 pairs × 2 synthesized rotations.
	if ratio := float64(c8) / float64(c4); ratio < 3.5 || ratio > 6 {
		t.Errorf("QFT T-count scaling 4→8 qubits = %.1fx, want ≈28/6≈4.7x", ratio)
	}
	// The QFT of the paper's workloads is where the T dominance comes from:
	// T fraction in the 20-40% band.
	p := compiler.NewProgram(8)
	QFT(p, 8, 1e-3)
	if f := p.Stats().TFraction; f < 0.2 || f > 0.6 {
		t.Errorf("QFT T fraction = %.2f", f)
	}
}

func TestGHZProgramRunsOnMachine(t *testing.T) {
	// The logical GHZ program streams through the full machine (instruction
	// accounting level) and drains.
	cfg := core.DefaultMachineConfig()
	cfg.PatchesPerTile = 4
	m := core.NewMachine(cfg)
	p := GHZ(4)
	rep, err := m.RunProgram(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained || rep.LogicalRetired != len(p.Instrs) {
		t.Fatalf("drained=%v retired=%d/%d", rep.Drained, rep.LogicalRetired, len(p.Instrs))
	}
	if len(rep.Results) != 4 {
		t.Errorf("measurements = %d", len(rep.Results))
	}
}

func TestBVProgramSchedulesSerially(t *testing.T) {
	// BV's oracle funnels every secret bit through one target qubit: the
	// schedule must show the serialization (ILP near 1 on the oracle span).
	secret := make([]bool, 8)
	for i := range secret {
		secret[i] = true
	}
	p := BernsteinVazirani(secret)
	res, err := sched.Schedule(p, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 8 serialized 3-slot CNOTs dominate the critical path.
	if res.CriticalPath < 24 {
		t.Errorf("critical path %d, want ≥ 24 (8 serialized braids)", res.CriticalPath)
	}
}

func TestPanicsOnBadWidths(t *testing.T) {
	expect := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	p := compiler.NewProgram(4)
	expect("qft width", func() { QFT(p, 9, 1e-3) })
	expect("ghz width", func() { GHZ(1) })
	tb := clifford.New(2, rand.New(rand.NewSource(1)))
	expect("bv tableau", func() { RunBernsteinVaziraniPhysical(tb, []bool{true, true, true}) })
	expect("teleport tableau", func() { RunTeleportationPhysical(tb, false) })
	expect("ghz tableau", func() { RunGHZPhysical(tb, 5) })
}
