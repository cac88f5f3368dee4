package core

// Cross-cutting invariant tests: the architectural guarantees of DESIGN.md
// §3, checked at machine scale rather than per package.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"quest/internal/compiler"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/surface"
)

// TestInvariantCadenceNeverStalls: across random programs, noise, designs
// and schedules, every machine cycle issues exactly one µop per qubit per
// sub-cycle. This is DESIGN.md invariant 2 — the deterministic QECC supply
// the paper's correctness argument requires.
func TestInvariantCadenceNeverStalls(t *testing.T) {
	f := func(seed int64, ops []uint8, designRaw, schedRaw uint8, noisy bool) bool {
		cfg := DefaultMachineConfig()
		cfg.Seed = seed
		cfg.Design = microcode.Designs()[int(designRaw)%3]
		if schedRaw%2 == 0 {
			cfg.Schedule = surface.Shor
		}
		if noisy {
			nm := noise.Uniform(1e-3)
			cfg.Noise = &nm
		}
		m := NewMachine(cfg)
		tile := m.Master().Tiles()[0]
		perCycle := tile.Layout().Lat.NumQubits() * cfg.Schedule.Depth
		if len(ops) > 12 {
			ops = ops[:12]
		}
		p := compiler.NewProgram(2)
		for _, b := range ops {
			switch b % 4 {
			case 0:
				p.Prep0(int(b) % 2)
			case 1:
				p.H(int(b) % 2)
			case 2:
				p.X(int(b) % 2)
			default:
				p.CNOT(int(b)%2, (int(b)+1)%2)
			}
		}
		for _, in := range p.Instrs {
			if err := m.Master().Dispatch(0, in); err != nil {
				return false
			}
		}
		for c := 0; c < 25; c++ {
			rep := m.Master().StepCycle()
			if rep.MicroOps != perCycle {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestInvariantTrafficIsProgramDeterministic: instruction-bus bytes depend
// only on the program, never on the noise realization or microcode
// organization — DESIGN.md invariant 5's precondition.
func TestInvariantTrafficIsProgramDeterministic(t *testing.T) {
	build := func(seed int64, design microcode.Design, noisy float64) (uint64, uint64) {
		cfg := DefaultMachineConfig()
		cfg.Seed = seed
		cfg.Design = design
		cfg.DecodeWindow = 2
		if noisy > 0 {
			nm := noise.Uniform(noisy)
			cfg.Noise = &nm
		}
		m := NewMachine(cfg)
		p := compiler.NewProgram(2)
		p.Prep0(0).Prep0(1).X(0).CNOT(0, 1).T(1).MeasZ(0).MeasZ(1)
		rep, err := m.RunProgram(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.QuESTBusBytes, rep.BaselineBusBytes
	}
	q0, b0 := build(1, microcode.DesignUnitCell, 0)
	variants := [][2]uint64{}
	variants = append(variants, [2]uint64{q0, b0})
	q, b := build(99, microcode.DesignRAM, 1e-3)
	variants = append(variants, [2]uint64{q, b})
	q, b = build(7, microcode.DesignFIFO, 1e-4)
	variants = append(variants, [2]uint64{q, b})
	for i, v := range variants[1:] {
		if v[0] != q0 {
			t.Errorf("variant %d: QuEST traffic %d != %d", i, v[0], q0)
		}
		if v[1] != b0 {
			t.Errorf("variant %d: baseline traffic %d != %d", i, v[1], b0)
		}
	}
}

// TestInvariantMicrocodeBitsScaleWithDesign: across a run, the internal
// microcode traffic of RAM exceeds FIFO (address bits), while FIFO and
// unit-cell match exactly — invariant 4 measured on the live machine.
func TestInvariantMicrocodeBitsScaleWithDesign(t *testing.T) {
	stream := func(d microcode.Design) uint64 {
		cfg := DefaultMachineConfig()
		cfg.Design = d
		m := NewMachine(cfg)
		for c := 0; c < 10; c++ {
			m.Master().StepCycle()
		}
		return m.Master().Tiles()[0].Store().BitsStreamed()
	}
	ram := stream(microcode.DesignRAM)
	fifo := stream(microcode.DesignFIFO)
	uc := stream(microcode.DesignUnitCell)
	if fifo != uc {
		t.Errorf("FIFO (%d) and unit-cell (%d) stream different bit counts", fifo, uc)
	}
	if ram <= fifo {
		t.Errorf("RAM (%d) does not exceed FIFO (%d)", ram, fifo)
	}
	// The ratio is the µop width ratio: (4+addr)/4.
	n := NewMachine(DefaultMachineConfig()).Master().Tiles()[0].Layout().Lat.NumQubits()
	wantRatio := float64(4+bitsFor(n)) / 4
	if got := float64(ram) / float64(fifo); got != wantRatio {
		t.Errorf("RAM/FIFO stream ratio %.3f, want %.3f", got, wantRatio)
	}
}

func bitsFor(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// TestInvariantSeedsReproduceEverything: two machines with identical
// configs produce identical cycle reports under noise, cycle by cycle.
func TestInvariantSeedsReproduceEverything(t *testing.T) {
	mk := func() *Machine {
		cfg := DefaultMachineConfig()
		cfg.Seed = 1234
		nm := noise.Uniform(2e-3)
		cfg.Noise = &nm
		cfg.DecodeWindow = 3
		return NewMachine(cfg)
	}
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 40; c++ {
		if rng.Intn(4) == 0 {
			in := compiler.NewProgram(2).X(rng.Intn(2)).Instrs[0]
			if err := a.Master().Dispatch(0, in); err != nil {
				t.Fatal(err)
			}
			if err := b.Master().Dispatch(0, in); err != nil {
				t.Fatal(err)
			}
		}
		ra := a.Master().StepCycle()
		rb := b.Master().StepCycle()
		if ra.MicroOps != rb.MicroOps || ra.LogicalRetired != rb.LogicalRetired ||
			ra.Escalated != rb.Escalated || ra.GlobalDecodes != rb.GlobalDecodes {
			t.Fatalf("cycle %d: twin machines diverged: %+v vs %+v", c, ra, rb)
		}
	}
	ea, _ := a.Master().Stats()
	eb, _ := b.Master().Stats()
	if ea != eb {
		t.Errorf("escalation totals diverged: %d vs %d", ea, eb)
	}
}
