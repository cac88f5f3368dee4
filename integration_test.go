package quest_test

import (
	"bytes"
	"testing"

	"quest/internal/awg"
	"quest/internal/compiler"
	"quest/internal/core"
	"quest/internal/host"
	"quest/internal/noise"
	"quest/internal/qasm"
	"quest/internal/qexe"
	"quest/internal/workload"
)

// TestFullPipelineEverythingOn is the grand integration test: textual source
// through the complete host pipeline (lint, schedule, placement,
// distillation bundling, binary serialization) onto a machine with every
// architectural feature enabled at once — multi-tile NoC delivery, bounded
// instruction buffers, noisy substrate, windowed union-find decoding,
// Table 1 timing — asserting correct results, full drain, and the bandwidth
// ordering the whole repository exists to demonstrate.
func TestFullPipelineEverythingOn(t *testing.T) {
	src := `
; two independent pairs that naive striping would split across tiles
prep0 q0
prep0 q3
prep0 q1
prep0 q2
x q0
cnot q0, q3
cnot q1, q2
t q1
measz q0
measz q3
measz q1
measz q2
`
	prog, err := qasm.Parse(bytes.NewBufferString(src), 4)
	if err != nil {
		t.Fatal(err)
	}
	if warnings := host.Lint(prog); len(warnings) != 0 {
		t.Fatalf("lint: %v", warnings)
	}
	opts := host.DefaultOptions()
	opts.MachineTiles = 2
	opts.PatchesPerTile = 2
	art, err := host.Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if art.Placement.CutCNOTs != 0 {
		t.Fatalf("placement left %d cuts", art.Placement.CutCNOTs)
	}
	if len(art.Exe.Caches) != 1 {
		t.Fatal("distillation body not bundled")
	}

	// Over the wire.
	var wire bytes.Buffer
	if err := art.Exe.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	exe, err := qexe.Decode(&wire)
	if err != nil {
		t.Fatal(err)
	}

	// Machine with every feature on.
	nm := noise.Uniform(1e-4)
	tech := workload.ProjectedD
	cfg := core.MachineConfig{
		Tiles:           2,
		PatchesPerTile:  2,
		Distance:        3,
		Schedule:        core.DefaultMachineConfig().Schedule,
		Design:          core.DefaultMachineConfig().Design,
		Noise:           &nm,
		Seed:            12,
		PacketsPerCycle: 4,
		Factories:       3,
		FactoryLatency:  3,
		CacheSlots:      4,
		UseNoC:          true,
		DecodeWindow:    3,
		Timing: &awg.Timing{
			PrepNs: tech.TPrep, Gate1Ns: tech.T1, MeasNs: tech.TMeas,
			CNOTNs: tech.TCNOT, IdleNs: tech.T1,
		},
	}
	m := core.NewMachine(cfg)
	rep, err := m.RunExecutable(exe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained {
		t.Fatal("machine did not drain")
	}
	if rep.LogicalRetired != len(exe.Program) {
		t.Fatalf("retired %d of %d", rep.LogicalRetired, len(exe.Program))
	}
	if len(rep.Results) != 4 {
		t.Fatalf("measurements = %d, want 4", len(rep.Results))
	}
	// q0 was X'd: its placed patch must read 1; the other three read 0.
	ones := 0
	for _, r := range rep.Results {
		ones += r.Bit
	}
	if ones != 1 {
		t.Errorf("measured %d ones across 4 qubits, want exactly 1 (the X'd qubit)", ones)
	}
	// Bandwidth ordering, wall clock, and timing all live.
	if rep.BaselineBusBytes <= rep.QuESTBusBytes {
		t.Error("bandwidth ordering violated")
	}
	// The one-shot distillation cache load (212 B) dominates this
	// 12-instruction program's bus bill, so absolute savings are modest
	// here; amortization is covered by the cache benchmarks.
	if rep.Savings() < 10 {
		t.Errorf("measured savings %.0f implausibly low", rep.Savings())
	}
	for i, tile := range m.Master().Tiles() {
		if tile.ElapsedNs() <= 0 {
			t.Errorf("tile %d: no wall-clock accounting", i)
		}
	}
}

// TestPlacedBlockProgramOnMachine ties compiler → placement → machine on a
// program whose interaction structure is clusterable but whose qubit
// numbering defeats naive striping: pairs (0,4),(1,5),(2,6),(3,7) braid
// repeatedly. Striping splits every pair across tiles; placement restores
// locality and the machine runs the whole thing.
func TestPlacedBlockProgramOnMachine(t *testing.T) {
	prog := compiler.NewProgram(8)
	for q := 0; q < 8; q++ {
		prog.Prep0(q)
	}
	for rep := 0; rep < 3; rep++ {
		for q := 0; q < 4; q++ {
			prog.CNOT(q, q+4)
		}
	}
	for q := 0; q < 8; q++ {
		prog.MeasZ(q)
	}
	opts := host.DefaultOptions()
	opts.MachineTiles = 4
	opts.PatchesPerTile = 2
	art, err := host.Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if art.Placement.CutCNOTs != 0 {
		t.Fatalf("clusterable program left %d cuts", art.Placement.CutCNOTs)
	}
	cfg := core.DefaultMachineConfig()
	cfg.Tiles = 4
	cfg.PatchesPerTile = 2
	m := core.NewMachine(cfg)
	rep, err := m.RunExecutable(art.Exe, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained || rep.LogicalRetired != len(art.Exe.Program) {
		t.Fatalf("drained=%v retired=%d/%d", rep.Drained, rep.LogicalRetired, len(art.Exe.Program))
	}
	if len(rep.Results) != 8 {
		t.Fatalf("measurements = %d, want 8", len(rep.Results))
	}
	// A dense synthetic workload slice, by contrast, is NOT fully
	// clusterable onto 2-patch tiles — the placer must report the cuts
	// rather than hide them.
	dense := workload.SyntheticProgram(workload.TFP, 120)
	denseArt, err := host.Compile(dense, opts)
	if err != nil {
		t.Fatal(err)
	}
	if denseArt.Placement.CutCNOTs == 0 {
		t.Error("dense interaction graph reported zero cuts — placer over-promising")
	}
}
