package core

// Integration between the §9 concatenation extension and the live machine:
// the outer Steane EC gadget is exactly the kind of deterministic loop the
// MCE instruction cache exists for, so staging it once and replaying it must
// work end to end — with bus traffic collapsing to run tokens.

import (
	"testing"

	"quest/internal/concat"
	"quest/internal/isa"
)

// tileLocalECBody folds the 8-qubit Steane EC gadget onto a machine tile the
// way tileLocalBody folds the distillation round: cadence preserved,
// operations made self-contained (frame Paulis) so the toy tile retires them
// without an 8-patch block.
func tileLocalECBody(patches int) []isa.LogicalInstr {
	var body []isa.LogicalInstr
	for _, in := range concat.ECGadget() {
		mapped := isa.LogicalInstr{Op: isa.LX, Target: in.Target % uint8(patches)}
		if in.Op == isa.LCNOT {
			mapped = isa.LogicalInstr{Op: isa.LZ, Target: in.Arg % uint8(patches)}
		}
		body = append(body, mapped)
	}
	return body
}

func TestOuterECGadgetReplaysFromCache(t *testing.T) {
	m := NewMachine(DefaultMachineConfig())
	mm := m.Master()
	mm.StepCycle()
	body := tileLocalECBody(2)
	if len(body) != concat.ECGadgetInstrs {
		t.Fatalf("folded body length %d != gadget %d", len(body), concat.ECGadgetInstrs)
	}
	if err := mm.LoadCache(0, 1, body); err != nil {
		t.Fatal(err)
	}
	const replays = 30
	if err := mm.RunCached(0, 1, replays); err != nil {
		t.Fatal(err)
	}
	_, drained := mm.Drain(20_000)
	if !drained {
		t.Fatal("outer EC replay did not drain")
	}
	_, retired, hits, loads, _ := mm.Tiles()[0].Stats()
	if retired != uint64(replays*len(body)) {
		t.Fatalf("retired %d, want %d", retired, replays*len(body))
	}
	if hits != replays || loads != 1 {
		t.Errorf("cache stats: hits=%d loads=%d", hits, loads)
	}
	// Bus bill: one body load + one run token, exactly as the concat
	// package's cached model prices it.
	wantBus := uint64(len(body)*isa.LogicalInstrBytes + isa.LogicalInstrBytes)
	if got := mm.InstructionBusBytes(); got != wantBus {
		t.Errorf("bus bytes = %d, want %d", got, wantBus)
	}
	// And the analytic model agrees on the per-replay cost.
	s := concat.Scheme{Levels: 1, InnerErrorRate: 1e-9}
	_, cachedPerRound := s.BusBytesPerRound()
	if cachedPerRound != isa.LogicalInstrBytes {
		t.Errorf("concat model prices a cached round at %d bytes, machine pays %d per replay",
			cachedPerRound, isa.LogicalInstrBytes)
	}
}

func TestOuterECGadgetUncachedCostsFullStream(t *testing.T) {
	m := NewMachine(DefaultMachineConfig())
	mm := m.Master()
	mm.StepCycle()
	body := tileLocalECBody(2)
	for _, in := range body {
		if err := mm.Dispatch(0, in); err != nil {
			t.Fatal(err)
		}
	}
	if _, drained := mm.Drain(5000); !drained {
		t.Fatal("uncached gadget did not drain")
	}
	want := uint64(len(body) * isa.LogicalInstrBytes)
	if got := mm.InstructionBusBytes(); got != want {
		t.Errorf("uncached bus bytes = %d, want %d", got, want)
	}
}
