package master

import (
	"reflect"
	"testing"

	"quest/internal/awg"
	"quest/internal/compiler"
	"quest/internal/isa"
	"quest/internal/mce"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/surface"
)

func newMachine(t *testing.T, tiles, patches int, nm *noise.Model) *Master {
	t.Helper()
	var ms []*mce.MCE
	for i := 0; i < tiles; i++ {
		ms = append(ms, mce.New(mce.Config{
			Design:     microcode.DesignUnitCell,
			Schedule:   surface.Steane,
			Layout:     compiler.NewLayout(3, patches),
			Noise:      nm,
			Seed:       int64(i + 1),
			CacheSlots: 4,
		}))
	}
	return New(Config{PacketsPerCycle: 4, FactoryLatency: 3, Factories: 2}, ms)
}

func TestDispatchAndRetire(t *testing.T) {
	m := newMachine(t, 2, 2, nil)
	m.StepCycle() // settle
	if err := m.Dispatch(0, isa.LogicalInstr{Op: isa.LPrep0, Target: 0}); err != nil {
		t.Fatal(err)
	}
	if err := m.Dispatch(1, isa.LogicalInstr{Op: isa.LPrep0, Target: 1}); err != nil {
		t.Fatal(err)
	}
	d, drained := m.Drain(20)
	if !drained {
		t.Fatal("machine did not drain")
	}
	if d.LogicalRetired != 2 {
		t.Errorf("retired %d, want 2", d.LogicalRetired)
	}
	if m.Logical.Bytes() != 4 {
		t.Errorf("logical bus bytes = %d, want 4 (2 instrs × 2B)", m.Logical.Bytes())
	}
}

func TestDispatchValidation(t *testing.T) {
	m := newMachine(t, 1, 2, nil)
	if err := m.Dispatch(5, isa.LogicalInstr{Op: isa.LH}); err == nil {
		t.Error("bad tile accepted")
	}
	if err := m.LoadCache(9, 0, []isa.LogicalInstr{{Op: isa.LH}}); err == nil {
		t.Error("bad cache tile accepted")
	}
	if err := m.RunCached(0, 0, 99); err == nil {
		t.Error("oversized replay count accepted")
	}
}

func TestNetworkThrottlesDeliveries(t *testing.T) {
	m := newMachine(t, 1, 2, nil)
	m.StepCycle()
	// Queue 12 frame-level Paulis; at 4 packets/cycle delivery takes 3
	// cycles even though the MCE could retire 4/cycle.
	for i := 0; i < 12; i++ {
		if err := m.Dispatch(0, isa.LogicalInstr{Op: isa.LX, Target: uint8(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	_, drained := m.Drain(40)
	if !drained {
		t.Fatal("did not drain")
	}
	// All 12 must have retired (two patches: 2 issue slots per cycle, but
	// the per-patch serialization stretches it; correctness is drain+count).
	_, retired, _, _, _ := m.Tiles()[0].Stats()
	if retired != 12 {
		t.Errorf("retired %d, want 12", retired)
	}
}

func TestCacheLoadCountsOnceReplaysAreFree(t *testing.T) {
	m := newMachine(t, 1, 2, nil)
	m.StepCycle()
	body := []isa.LogicalInstr{
		{Op: isa.LX, Target: 0}, {Op: isa.LZ, Target: 1},
		{Op: isa.LX, Target: 1}, {Op: isa.LZ, Target: 0},
	}
	if err := m.LoadCache(0, 0, body); err != nil {
		t.Fatal(err)
	}
	loadBytes := m.Cache.Bytes()
	if loadBytes != uint64(len(body)*2) {
		t.Fatalf("cache load bytes = %d", loadBytes)
	}
	if err := m.RunCached(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	_, drained := m.Drain(200)
	if !drained {
		t.Fatal("did not drain")
	}
	_, retired, hits, _, _ := m.Tiles()[0].Stats()
	if retired != uint64(10*len(body)) {
		t.Errorf("retired %d, want %d", retired, 10*len(body))
	}
	if hits != 10 {
		t.Errorf("cache hits = %d", hits)
	}
	// The 40 replayed instructions cost one 2-byte run token on the bus.
	if got := m.Logical.Bytes(); got != 2 {
		t.Errorf("bus bytes for replays = %d, want 2", got)
	}
	if m.Cache.Bytes() != loadBytes {
		t.Error("replays re-charged the cache meter")
	}
}

func TestFactoriesFeedMagicStates(t *testing.T) {
	m := newMachine(t, 1, 2, nil)
	m.StepCycle()
	if err := m.Dispatch(0, isa.LogicalInstr{Op: isa.LT, Target: 0}); err != nil {
		t.Fatal(err)
	}
	d, drained := m.Drain(30)
	if !drained {
		t.Fatal("T gate never satisfied")
	}
	if d.MagicProduced == 0 {
		t.Error("factories produced nothing")
	}
}

func TestGlobalDecoderEngagesUnderNoise(t *testing.T) {
	nm := noise.Uniform(2e-3)
	m := newMachine(t, 2, 2, &nm)
	for c := 0; c < 150; c++ {
		m.StepCycle()
	}
	escalated, decodes := m.Stats()
	if escalated == 0 || decodes == 0 {
		t.Errorf("global decoder idle under noise: escalated=%d decodes=%d", escalated, decodes)
	}
	if m.Syndrome.Bytes() == 0 {
		t.Error("no syndrome return traffic metered")
	}
	// Syndrome traffic is not instruction traffic.
	if m.InstructionBusBytes() != 0 {
		t.Errorf("noise generated instruction-bus traffic: %d", m.InstructionBusBytes())
	}
}

func TestDeterministicCadenceAcrossTiles(t *testing.T) {
	m := newMachine(t, 3, 2, nil)
	want := 0
	for _, tile := range m.Tiles() {
		want += tile.Layout().Lat.NumQubits() * surface.Steane.Depth
	}
	for c := 0; c < 5; c++ {
		rep := m.StepCycle()
		if rep.MicroOps != want {
			t.Fatalf("cycle %d: %d µops, want %d", c, rep.MicroOps, want)
		}
	}
}

func TestNewPanicsWithoutTiles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty tile list")
		}
	}()
	New(Config{}, nil)
}

func TestWindowedDecodeMode(t *testing.T) {
	nm := noise.Uniform(2e-3)
	var ms []*mce.MCE
	for i := 0; i < 2; i++ {
		ms = append(ms, mce.New(mce.Config{
			Design:   microcode.DesignUnitCell,
			Schedule: surface.Steane,
			Layout:   compiler.NewLayout(3, 2),
			Noise:    &nm,
			Seed:     int64(i + 7),
		}))
	}
	m := New(Config{PacketsPerCycle: 4, DecodeWindow: 3}, ms)
	for c := 0; c < 90; c++ {
		m.StepCycle()
	}
	escalated, decodes := m.Stats()
	if escalated == 0 {
		t.Fatal("no escalations under noise")
	}
	if decodes == 0 {
		t.Error("windowed mode never decoded")
	}
	// Window batches: decode invocations well below escalation count.
	if decodes >= escalated {
		t.Errorf("decodes (%d) not batched below escalations (%d)", decodes, escalated)
	}
	// Flush clears any open windows.
	m.FlushDecodeWindows()
	for _, w := range m.windows {
		if w.Pending() != 0 {
			t.Error("window still pending after flush")
		}
	}
}

func TestTimingAccountsRuntime(t *testing.T) {
	tm := awg.Timing{PrepNs: 40, Gate1Ns: 5, MeasNs: 35, CNOTNs: 20, IdleNs: 5}
	eng := mce.New(mce.Config{
		Design:   microcode.DesignUnitCell,
		Schedule: surface.Steane,
		Layout:   compiler.NewLayout(3, 2),
		Seed:     1,
		Timing:   &tm,
	})
	eng.StepCycle()
	// One Steane cycle: prep(40) + 4 CNOT rounds(80) + meas(35) + 3 idle
	// pads(15) = 170ns.
	if got := eng.ElapsedNs(); got != 170 {
		t.Errorf("one QECC cycle = %v ns, want 170", got)
	}
	eng.StepCycle()
	if got := eng.ElapsedNs(); got != 340 {
		t.Errorf("two cycles = %v ns", got)
	}
}

func TestNoCDeliveryMode(t *testing.T) {
	var ms []*mce.MCE
	for i := 0; i < 4; i++ {
		ms = append(ms, mce.New(mce.Config{
			Design:   microcode.DesignUnitCell,
			Schedule: surface.Steane,
			Layout:   compiler.NewLayout(3, 2),
			Seed:     int64(i + 1),
		}))
	}
	m := New(Config{UseNoC: true}, ms)
	m.StepCycle()
	// Dispatch work to every tile; far tiles take more network cycles but
	// everything retires.
	for tile := 0; tile < 4; tile++ {
		if err := m.Dispatch(tile, isa.LogicalInstr{Op: isa.LX, Target: 0}); err != nil {
			t.Fatal(err)
		}
		if err := m.Dispatch(tile, isa.LogicalInstr{Op: isa.LZ, Target: 0}); err != nil {
			t.Fatal(err)
		}
	}
	d, drained := m.Drain(50)
	if !drained {
		t.Fatal("NoC machine did not drain")
	}
	if d.LogicalRetired != 8 {
		t.Errorf("retired %d, want 8", d.LogicalRetired)
	}
	if m.InstructionBusBytes() != 16 {
		t.Errorf("bus bytes = %d, want 16 (8 packets × 2B)", m.InstructionBusBytes())
	}
	// The mesh must be fully drained.
	if m.mesh.Pending() != 0 {
		t.Error("packets stranded in the mesh")
	}
	_, delivered, mean, _ := m.mesh.Stats()
	if delivered != 8 || mean < 1 {
		t.Errorf("mesh stats: delivered=%d mean=%v", delivered, mean)
	}
}

func TestFlowControlRespectsSmallBuffers(t *testing.T) {
	eng := mce.New(mce.Config{
		Design:         microcode.DesignUnitCell,
		Schedule:       surface.Steane,
		Layout:         compiler.NewLayout(3, 2),
		Seed:           1,
		BufferCapacity: 2,
	})
	m := New(Config{PacketsPerCycle: 16}, []*mce.MCE{eng})
	m.StepCycle()
	// Flood 30 instructions; the master may only trickle 2 at a time, and
	// must never panic on a full buffer.
	for i := 0; i < 30; i++ {
		if err := m.Dispatch(0, isa.LogicalInstr{Op: isa.LX, Target: uint8(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	_, drained := m.Drain(200)
	if !drained {
		t.Fatal("backpressured machine did not drain")
	}
	_, retired, _, _, _ := eng.Stats()
	if retired != 30 {
		t.Errorf("retired %d, want 30", retired)
	}
}

func TestMagicStatesRoutedToHungriestTile(t *testing.T) {
	m := newMachine(t, 2, 2, nil)
	m.StepCycle()
	// Pre-load tile 0 with a surplus; new production must flow to tile 1.
	m.Tiles()[0].SupplyMagicStates(10)
	for c := 0; c < 12; c++ {
		m.StepCycle()
	}
	if m.Tiles()[1].MagicStates() == 0 {
		t.Error("hungry tile received nothing")
	}
	if m.Tiles()[0].MagicStates() != 10 {
		t.Errorf("sated tile over-supplied: %d", m.Tiles()[0].MagicStates())
	}
}

func TestNoCWithBoundedBuffersDrains(t *testing.T) {
	eng := mce.New(mce.Config{
		Design:         microcode.DesignUnitCell,
		Schedule:       surface.Steane,
		Layout:         compiler.NewLayout(3, 2),
		Seed:           3,
		BufferCapacity: 2,
	})
	m := New(Config{UseNoC: true}, []*mce.MCE{eng})
	m.StepCycle()
	// Flood 25 instructions through the mesh into a 2-slot buffer: the
	// overflow queue must absorb ejections, never panic, and drain fully.
	for i := 0; i < 25; i++ {
		if err := m.Dispatch(0, isa.LogicalInstr{Op: isa.LX, Target: uint8(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	_, drained := m.Drain(300)
	if !drained {
		t.Fatal("NoC + bounded buffer did not drain")
	}
	_, retired, _, _, _ := eng.Stats()
	if retired != 25 {
		t.Errorf("retired %d, want 25", retired)
	}
}

// TestDrainTotalsRunUntilDrained pins Drain's totals to the per-cycle
// reports RunUntilDrained keeps: two machines built alike and given the
// same noisy program agree on the cycle count, every summed count, the
// results in cycle order and the drained flag.
func TestDrainTotalsRunUntilDrained(t *testing.T) {
	nm := noise.Uniform(2e-3)
	load := func(m *Master) {
		m.StepCycle()
		for _, in := range []isa.LogicalInstr{
			{Op: isa.LPrep0, Target: 0}, {Op: isa.LPrep0, Target: 1}, {Op: isa.LT, Target: 0},
			{Op: isa.LX, Target: 1}, {Op: isa.LMeasZ, Target: 0}, {Op: isa.LMeasZ, Target: 1},
		} {
			if err := m.Dispatch(0, in); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; c < 40; c++ {
			if err := m.Dispatch(1, isa.LogicalInstr{Op: isa.LX, Target: uint8(c % 2)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := newMachine(t, 2, 2, &nm), newMachine(t, 2, 2, &nm)
	load(a)
	load(b)
	d, dDrained := a.Drain(200)
	reps, rDrained := b.RunUntilDrained(200)
	var want DrainReport
	for _, r := range reps {
		want.Cycles++
		want.MicroOps += r.MicroOps
		want.LogicalRetired += r.LogicalRetired
		want.Escalated += r.Escalated
		want.GlobalDecodes += r.GlobalDecodes
		want.MagicProduced += r.MagicProduced
		want.Results = append(want.Results, r.Results...)
	}
	if !dDrained || !rDrained {
		t.Fatalf("drained: Drain %v, RunUntilDrained %v; want both", dDrained, rDrained)
	}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("Drain totals %+v\nper-cycle sums %+v", d, want)
	}
	if d.Escalated == 0 || d.MagicProduced == 0 || len(d.Results) != 2 {
		t.Errorf("totals %+v: want escalations, magic states and 2 results, so every field is exercised", d)
	}
}
