package mce

import (
	"strings"
	"testing"

	"quest/internal/compiler"
	"quest/internal/distill"
	"quest/internal/isa"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/surface"
)

func newMCE(t *testing.T, patches int, opts ...func(*Config)) *MCE {
	t.Helper()
	cfg := Config{
		Design:     microcode.DesignUnitCell,
		Schedule:   surface.Steane,
		Layout:     compiler.NewLayout(3, patches),
		Seed:       1,
		CacheSlots: 4,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg)
}

func TestAutonomousQECCReplay(t *testing.T) {
	// With no logical traffic at all, the MCE must keep every qubit busy
	// every sub-cycle, entirely from microcode.
	m := newMCE(t, 2)
	n := m.Layout().Lat.NumQubits()
	for c := 0; c < 5; c++ {
		rep := m.StepCycle()
		if rep.MicroOpsIssued != n*surface.Steane.Depth {
			t.Fatalf("cycle %d: issued %d µops, want %d (one per qubit per sub-cycle)",
				c, rep.MicroOpsIssued, n*surface.Steane.Depth)
		}
		if rep.LogicalRetired != 0 {
			t.Fatalf("cycle %d: phantom logical retirement", c)
		}
	}
	micro, logical, _, _, _ := m.Stats()
	if micro != uint64(5*n*surface.Steane.Depth) || logical != 0 {
		t.Errorf("stats = (%d,%d)", micro, logical)
	}
}

func TestNoiselessSyndromesSettle(t *testing.T) {
	// After the first cycle projects the lattice, later noiseless cycles
	// must produce zero defects — QECC replay is not itself a disturbance.
	m := newMCE(t, 2)
	m.StepCycle()
	m.StepCycle()
	for c := 2; c < 6; c++ {
		rep := m.StepCycle()
		if len(rep.DefectsEscalated) != 0 || rep.DefectsLocal != 0 {
			t.Fatalf("cycle %d: defects on a noiseless substrate (local=%d escalated=%d)",
				c, rep.DefectsLocal, len(rep.DefectsEscalated))
		}
	}
}

func TestTransverseInstructionLifecycle(t *testing.T) {
	m := newMCE(t, 2)
	m.StepCycle() // settle
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LPrep0, Target: 0}); err != nil {
		t.Fatal(err)
	}
	rep := m.StepCycle()
	if rep.LogicalRetired != 1 {
		t.Fatalf("prep not retired: %+v", rep)
	}
	// Measure the prepared patch: must read logical 0.
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LMeasZ, Target: 0}); err != nil {
		t.Fatal(err)
	}
	rep = m.StepCycle()
	if len(rep.LogicalResults) != 1 {
		t.Fatalf("no measurement result: %+v", rep)
	}
	if rep.LogicalResults[0].Patch != 0 || rep.LogicalResults[0].Bit != 0 {
		t.Errorf("measured %+v, want patch 0 bit 0", rep.LogicalResults[0])
	}
}

func TestLogicalXFlipsMeasurement(t *testing.T) {
	m := newMCE(t, 1)
	m.StepCycle()
	for _, in := range []isa.LogicalInstr{
		{Op: isa.LPrep0, Target: 0},
		{Op: isa.LX, Target: 0},
		{Op: isa.LMeasZ, Target: 0},
	} {
		if err := m.Enqueue(in); err != nil {
			t.Fatal(err)
		}
	}
	// One instruction per cycle per patch (patch busy rule serializes).
	var results []LogicalResult
	for c := 0; c < 6 && len(results) == 0; c++ {
		rep := m.StepCycle()
		results = append(results, rep.LogicalResults...)
	}
	if len(results) != 1 || results[0].Bit != 1 {
		t.Fatalf("logical X then MeasZ: results = %+v, want bit 1", results)
	}
}

// TestSimultaneousMeasurementsReportInPatchOrder pins the report order of
// measurements that finish in the same cycle: ascending patch index, never
// map iteration order. Four patches are measured in one cycle, enqueued in
// reverse, on 50 fresh engines; X on patches 1 and 3 makes each bit name its
// patch's parity as well.
func TestSimultaneousMeasurementsReportInPatchOrder(t *testing.T) {
	const patches = 4
	for rep := 0; rep < 50; rep++ {
		m := newMCE(t, patches)
		m.StepCycle()
		for _, in := range []isa.LogicalInstr{
			{Op: isa.LPrep0, Target: 3}, {Op: isa.LPrep0, Target: 2},
			{Op: isa.LPrep0, Target: 1}, {Op: isa.LPrep0, Target: 0},
			{Op: isa.LX, Target: 3}, {Op: isa.LX, Target: 1},
		} {
			if err := m.Enqueue(in); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; m.PendingLogical() > 0; c++ {
			if c > 10 {
				t.Fatal("preparation traffic did not drain")
			}
			m.StepCycle()
		}
		for p := patches - 1; p >= 0; p-- {
			if err := m.Enqueue(isa.LogicalInstr{Op: isa.LMeasZ, Target: uint8(p)}); err != nil {
				t.Fatal(err)
			}
		}
		got := m.StepCycle().LogicalResults
		if len(got) != patches {
			t.Fatalf("rep %d: %d results in the measuring cycle, want %d: %+v", rep, len(got), patches, got)
		}
		for i, r := range got {
			if r.Patch != i || r.Bit != i%2 {
				t.Fatalf("rep %d: results %+v, want patches 0..3 in order with bits 0,1,0,1", rep, got)
			}
		}
	}
}

func TestQECCContinuesDuringLogicalWork(t *testing.T) {
	// The determinism invariant: logical traffic must never reduce the µop
	// cadence — every qubit still gets Depth µops per cycle.
	m := newMCE(t, 3)
	n := m.Layout().Lat.NumQubits()
	m.StepCycle()
	m.Enqueue(isa.LogicalInstr{Op: isa.LPrep0, Target: 0})
	m.Enqueue(isa.LogicalInstr{Op: isa.LH, Target: 1})
	m.Enqueue(isa.LogicalInstr{Op: isa.LCNOT, Target: 0, Arg: 2})
	for c := 0; c < 20; c++ {
		rep := m.StepCycle()
		if rep.MicroOpsIssued != n*surface.Steane.Depth {
			t.Fatalf("cycle %d: cadence broken (%d µops)", c, rep.MicroOpsIssued)
		}
	}
	if m.PendingLogical() != 0 {
		t.Errorf("logical backlog %d after 20 cycles", m.PendingLogical())
	}
}

func TestBraidOccupiesPatchesAndCompletes(t *testing.T) {
	m := newMCE(t, 2)
	m.StepCycle()
	m.Enqueue(isa.LogicalInstr{Op: isa.LCNOT, Target: 0, Arg: 1})
	// While braiding, further work on either patch must wait.
	m.Enqueue(isa.LogicalInstr{Op: isa.LH, Target: 0})
	retired := 0
	braidCycles := 0
	for c := 0; c < 30 && retired < 2; c++ {
		rep := m.StepCycle()
		retired += rep.LogicalRetired
		if len(m.braids) > 0 {
			braidCycles++
		}
	}
	if retired != 2 {
		t.Fatalf("retired %d of 2 instructions", retired)
	}
	if braidCycles < 2 {
		t.Errorf("braid completed in %d cycles, want multi-cycle", braidCycles)
	}
}

func TestTGateStallsWithoutMagicState(t *testing.T) {
	m := newMCE(t, 1)
	m.StepCycle()
	m.Enqueue(isa.LogicalInstr{Op: isa.LT, Target: 0})
	for c := 0; c < 3; c++ {
		rep := m.StepCycle()
		if rep.LogicalRetired != 0 {
			t.Fatal("T retired without a magic state")
		}
	}
	_, _, _, _, stalled := m.Stats()
	if stalled == 0 {
		t.Error("no stall recorded")
	}
	m.SupplyMagicStates(1)
	rep := m.StepCycle()
	if rep.LogicalRetired != 1 {
		t.Fatalf("T did not retire after supply: %+v", rep)
	}
	if m.MagicStates() != 0 {
		t.Errorf("magic state not consumed: %d left", m.MagicStates())
	}
}

func TestCacheReplayOfDistillationBody(t *testing.T) {
	m := newMCE(t, 2)
	m.StepCycle()
	// Load a deterministic loop body shaped like a distillation slice
	// restricted to this tile's two patches: Pauli/H/T-free so it retires
	// cleanly without a magic-state supply.
	var body []isa.LogicalInstr
	for i := 0; i < len(distill.RoundCircuit()) && len(body) < 12; i++ {
		body = append(body,
			isa.LogicalInstr{Op: isa.LX, Target: uint8(i % 2)},
			isa.LogicalInstr{Op: isa.LZ, Target: uint8((i + 1) % 2)},
		)
	}
	if err := m.LoadCacheSlot(0, body); err != nil {
		t.Fatal(err)
	}
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: 3}); err != nil {
		t.Fatal(err)
	}
	want := 3 * len(body)
	retired := 0
	for c := 0; c < 40*len(body) && retired < want; c++ {
		rep := m.StepCycle()
		retired += rep.LogicalRetired
	}
	if retired != want {
		t.Fatalf("cache replay retired %d, want %d", retired, want)
	}
	_, _, hits, loads, _ := m.Stats()
	if hits != 3 || loads != 1 {
		t.Errorf("cache stats hits=%d loads=%d, want 3/1", hits, loads)
	}
}

func TestCacheErrors(t *testing.T) {
	m := newMCE(t, 1)
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: 1}); err == nil {
		t.Error("run on empty slot accepted")
	}
	if err := m.LoadCacheSlot(9, []isa.LogicalInstr{{Op: isa.LH}}); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := m.LoadCacheSlot(0, nil); err == nil {
		t.Error("empty body accepted")
	}
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LCacheLoad, Target: 0}); err == nil {
		t.Error("bare LCacheLoad accepted")
	}
	noCache := newMCE(t, 1, func(c *Config) { c.CacheSlots = 0 })
	if err := noCache.LoadCacheSlot(0, []isa.LogicalInstr{{Op: isa.LH}}); err == nil {
		t.Error("cache-disabled load accepted")
	}
}

func TestEnqueueValidation(t *testing.T) {
	m := newMCE(t, 2)
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LH, Target: 5}); err == nil {
		t.Error("patch outside tile accepted")
	}
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LCNOT, Target: 0, Arg: 5}); err == nil {
		t.Error("CNOT partner outside tile accepted")
	}
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LSyncToken, Target: 1}); err != nil {
		t.Errorf("sync token rejected: %v", err)
	}
	if m.PendingLogical() != 0 {
		t.Error("sync token buffered")
	}
}

// TestQueuedInstructionChecks pins the one check behind Enqueue, on a
// two-patch tile: each rejected instruction — sent on its own, or replayed
// from a cache body by a cache run — fails Check and Enqueue with the named
// error and leaves nothing queued, where before a cached instruction naming
// a patch outside the tile, a CNOT onto its own patch and a nested cache
// opcode were queued and panicked at issue. A body is held to the tile when
// it runs, not when it loads: the full 16-patch distillation round still
// loads, and only running it fails. A mask opcode is not range-checked, and
// the distillation round projected onto the tile runs.
func TestQueuedInstructionChecks(t *testing.T) {
	in := func(op isa.LogicalOpcode, target, arg uint8) isa.LogicalInstr {
		return isa.LogicalInstr{Op: op, Target: target, Arg: arg}
	}
	for _, tc := range []struct {
		name string
		// body, when set, is loaded into slot 0 and instr runs it.
		body  []isa.LogicalInstr
		instr isa.LogicalInstr
		want  string // error substring; empty when accepted
	}{
		{"patch outside tile", nil, in(isa.LX, 9, 0), "targets patch outside tile"},
		{"CNOT target outside tile", nil, in(isa.LCNOT, 7, 0), "targets patch outside tile"},
		{"CNOT partner outside tile", nil, in(isa.LCNOT, 0, 5), "CNOT partner outside tile"},
		{"CNOT onto itself", nil, in(isa.LCNOT, 1, 1), "two distinct patches"},
		{"bare cache load", nil, in(isa.LCacheLoad, 0, 0), "via LoadCacheSlot"},
		{"run of an empty slot", nil, in(isa.LCacheRun, 0, 1), "empty slot 0"},
		{"mask opcode past the tile", nil, in(isa.LMaskGrow, 200, 0), ""},
		{"cached patch outside tile", []isa.LogicalInstr{in(isa.LX, 0, 0), in(isa.LX, 9, 0)}, in(isa.LCacheRun, 0, 2), "targets patch outside tile"},
		{"cached CNOT partner outside tile", []isa.LogicalInstr{in(isa.LCNOT, 0, 5)}, in(isa.LCacheRun, 0, 1), "CNOT partner outside tile"},
		{"cached CNOT onto itself", []isa.LogicalInstr{in(isa.LCNOT, 1, 1)}, in(isa.LCacheRun, 0, 1), "two distinct patches"},
		{"cached cache run", []isa.LogicalInstr{in(isa.LCacheRun, 0, 1)}, in(isa.LCacheRun, 0, 1), "may not hold"},
		{"cached cache load", []isa.LogicalInstr{in(isa.LCacheLoad, 0, 0)}, in(isa.LCacheRun, 0, 1), "may not hold"},
		{"cached sync token", []isa.LogicalInstr{in(isa.LSyncToken, 0, 0)}, in(isa.LCacheRun, 0, 1), "may not hold"},
		{"full distillation round", distill.RoundCircuit(), in(isa.LCacheRun, 0, 1), "targets patch outside tile"},
		{"projected distillation round", distillBody(2), in(isa.LCacheRun, 0, 1), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMCE(t, 2)
			if tc.body != nil {
				if err := m.LoadCacheSlot(0, tc.body); err != nil {
					t.Fatalf("LoadCacheSlot: %v", err)
				}
			}
			checked := m.Check(tc.instr)
			if m.PendingLogical() != 0 {
				t.Fatal("Check queued an instruction")
			}
			err := m.Enqueue(tc.instr)
			switch {
			case (checked == nil) != (err == nil) || (err != nil && checked.Error() != err.Error()):
				t.Fatalf("Check says %v, Enqueue %v", checked, err)
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want == "":
				return
			case err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.want)
			case !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q, want one containing %q", err, tc.want)
			}
			if m.PendingLogical() != 0 {
				t.Errorf("a rejected instruction left %d queued", m.PendingLogical())
			}
		})
	}
}

func TestNoisyRunLocalDecoderWorks(t *testing.T) {
	nm := noise.Uniform(5e-4)
	m := newMCE(t, 2, func(c *Config) { c.Noise = &nm; c.Seed = 42 })
	localTotal, escalatedTotal := 0, 0
	for c := 0; c < 200; c++ {
		rep := m.StepCycle()
		localTotal += rep.DefectsLocal
		escalatedTotal += len(rep.DefectsEscalated)
	}
	if localTotal == 0 {
		t.Error("local decoder never resolved anything over 200 noisy cycles")
	}
	// The LUT handles the common case: most rounds with defects should be
	// resolved locally.
	if localTotal < escalatedTotal/4 {
		t.Errorf("local decoder resolved %d vs %d escalated — LUT ineffective", localTotal, escalatedTotal)
	}
}

func TestMicrocodeTrafficIsInternal(t *testing.T) {
	// The microcode store streams bits every cycle, but that traffic never
	// appears on the global bus — it is the whole point of the architecture.
	m := newMCE(t, 2)
	m.StepCycle()
	m.StepCycle()
	if m.Store().BitsStreamed() == 0 {
		t.Error("no microcode streaming recorded")
	}
}

func TestXBasisMeasurement(t *testing.T) {
	m := newMCE(t, 1)
	m.StepCycle()
	for _, in := range []isa.LogicalInstr{
		{Op: isa.LPrepPlus, Target: 0},
		{Op: isa.LMeasX, Target: 0},
	} {
		if err := m.Enqueue(in); err != nil {
			t.Fatal(err)
		}
	}
	var results []LogicalResult
	for c := 0; c < 6 && len(results) == 0; c++ {
		rep := m.StepCycle()
		results = append(results, rep.LogicalResults...)
	}
	if len(results) != 1 || results[0].Bit != 0 {
		t.Fatalf("prep|+> then MeasX: %+v, want bit 0", results)
	}
}

func TestDesignsProduceIdenticalBehaviour(t *testing.T) {
	// RAM, FIFO and unit-cell MCEs must retire the same program with the
	// same results — the microcode organization is invisible to semantics.
	run := func(d microcode.Design) []LogicalResult {
		m := newMCE(t, 2, func(c *Config) { c.Design = d })
		m.StepCycle()
		m.Enqueue(isa.LogicalInstr{Op: isa.LPrep0, Target: 0})
		m.Enqueue(isa.LogicalInstr{Op: isa.LX, Target: 0})
		m.Enqueue(isa.LogicalInstr{Op: isa.LMeasZ, Target: 0})
		var out []LogicalResult
		for c := 0; c < 8; c++ {
			out = append(out, m.StepCycle().LogicalResults...)
		}
		return out
	}
	ram := run(microcode.DesignRAM)
	fifo := run(microcode.DesignFIFO)
	uc := run(microcode.DesignUnitCell)
	if len(ram) != 1 || len(fifo) != 1 || len(uc) != 1 {
		t.Fatalf("result counts: %d %d %d", len(ram), len(fifo), len(uc))
	}
	if ram[0] != fifo[0] || fifo[0] != uc[0] {
		t.Errorf("designs disagree: %+v %+v %+v", ram[0], fifo[0], uc[0])
	}
	if ram[0].Bit != 1 {
		t.Errorf("prep,X,meas = %d, want 1", ram[0].Bit)
	}
}

// TestOverlayLeavesReplayWordsClean pins that a cycle's logical overlay
// never reaches the store's replay words. The store hands the same words to
// every cycle under an unchanged mask, so an overlay written into them would
// replay on every later cycle.
func TestOverlayLeavesReplayWordsClean(t *testing.T) {
	for _, d := range microcode.Designs() {
		m := newMCE(t, 2, func(c *Config) { c.Design = d })
		m.StepCycle()
		lat := m.Layout().Lat
		want := surface.CompileCycle(lat, surface.Steane, m.mask)
		var overlay []isa.MicroOp
		for q, op := range want[0].Ops {
			if op == isa.OpIdle && lat.RoleOf(q) == surface.RoleData {
				overlay = append(overlay, isa.MicroOp{Op: isa.OpX, Qubit: q, Pair: -1})
			}
		}
		if len(overlay) == 0 {
			t.Fatalf("%s: no idle data qubit in the first sub-cycle to overlay", d)
		}
		version := m.mask.Version()
		rep := CycleReport{Cycle: m.cycle}
		m.beginCycle(&rep)
		m.runCycle(&rep, overlay, m.stalledT)
		if m.mask.Version() != version {
			t.Fatalf("%s: the cycle changed the mask; the test needs it unchanged", d)
		}
		got := m.store.ReplayCycle(m.mask)
		for s := range want {
			if !want[s].Equal(got[s]) {
				t.Fatalf("%s: replay word %d differs from the compiled cycle after an overlaid cycle", d, s)
			}
		}
	}
}

func TestBufferCapacityBackpressure(t *testing.T) {
	m := newMCE(t, 2, func(c *Config) { c.BufferCapacity = 3 })
	for i := 0; i < 3; i++ {
		if err := m.Enqueue(isa.LogicalInstr{Op: isa.LH, Target: 0}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if m.FreeBufferSlots() != 0 {
		t.Errorf("free slots = %d", m.FreeBufferSlots())
	}
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LH, Target: 0}); err == nil {
		t.Error("overfull buffer accepted an instruction")
	}
	// Draining frees slots again.
	m.StepCycle()
	if m.FreeBufferSlots() == 0 {
		t.Error("no slots freed after issue")
	}
	// Unbounded MCEs report a large sentinel.
	u := newMCE(t, 1)
	if u.FreeBufferSlots() < 1<<20 {
		t.Error("unbounded buffer reports small free count")
	}
}

func TestConcurrentBraidsOnDisjointPatches(t *testing.T) {
	m := newMCE(t, 4)
	m.StepCycle()
	// Two braids on disjoint patch pairs run concurrently.
	m.Enqueue(isa.LogicalInstr{Op: isa.LCNOT, Target: 0, Arg: 1})
	m.Enqueue(isa.LogicalInstr{Op: isa.LCNOT, Target: 2, Arg: 3})
	rep := m.StepCycle()
	if rep.LogicalRetired != 0 {
		t.Fatal("braids retired instantly")
	}
	if len(m.braids) != 2 {
		t.Fatalf("concurrent braids = %d, want 2", len(m.braids))
	}
	retired := 0
	for c := 0; c < 30 && retired < 2; c++ {
		retired += m.StepCycle().LogicalRetired
	}
	if retired != 2 {
		t.Errorf("retired %d of 2 braids", retired)
	}
}

func TestIssueWidthCapsPerCycleStarts(t *testing.T) {
	m := newMCE(t, 6)
	m.StepCycle()
	// 6 independent frame-level Paulis: only issueWidth (4) start per cycle.
	for q := 0; q < 6; q++ {
		if err := m.Enqueue(isa.LogicalInstr{Op: isa.LX, Target: uint8(q)}); err != nil {
			t.Fatal(err)
		}
	}
	r1 := m.StepCycle()
	if r1.LogicalRetired != 4 {
		t.Errorf("first cycle retired %d, want issue width 4", r1.LogicalRetired)
	}
	r2 := m.StepCycle()
	if r2.LogicalRetired != 2 {
		t.Errorf("second cycle retired %d, want 2", r2.LogicalRetired)
	}
}

func TestPerPatchProgramOrderPreserved(t *testing.T) {
	// X then MeasZ then X on one patch: the measurement must see exactly one
	// X (order preserved), and the trailing X applies to the dead patch
	// harmlessly.
	m := newMCE(t, 1)
	m.StepCycle()
	m.Enqueue(isa.LogicalInstr{Op: isa.LPrep0, Target: 0})
	m.Enqueue(isa.LogicalInstr{Op: isa.LX, Target: 0})
	m.Enqueue(isa.LogicalInstr{Op: isa.LMeasZ, Target: 0})
	m.Enqueue(isa.LogicalInstr{Op: isa.LX, Target: 0})
	var results []LogicalResult
	for c := 0; c < 10; c++ {
		results = append(results, m.StepCycle().LogicalResults...)
	}
	if len(results) != 1 || results[0].Bit != 1 {
		t.Fatalf("results = %+v, want one measurement of 1", results)
	}
}
