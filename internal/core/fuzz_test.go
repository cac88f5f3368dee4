package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"quest/internal/compiler"
	"quest/internal/isa"
	"quest/internal/mce"
	"quest/internal/microcode"
	"quest/internal/qasm"
	"quest/internal/qexe"
	"quest/internal/surface"
)

// hostileExecutable is an executable that once panicked the run path
// instead of failing with an error.
type hostileExecutable struct {
	name string
	exe  *qexe.Executable
}

// hostileExecutables are a run of a cached instruction on a patch outside
// the tile, a run of a cached CNOT of a patch onto itself, a program CNOT of
// a qubit onto itself, and programs that name cache opcodes the tile
// refuses on delivery: an LCacheLoad, and a run of a slot nothing loaded.
func hostileExecutables() []hostileExecutable {
	prog := func(ins ...isa.LogicalInstr) *qexe.Executable {
		return &qexe.Executable{NumLogical: 2, Program: append([]isa.LogicalInstr{{Op: isa.LPrep0, Target: 0}}, ins...)}
	}
	cached := func(body ...isa.LogicalInstr) *qexe.Executable {
		exe := prog(isa.LogicalInstr{Op: isa.LCacheRun, Target: 0})
		exe.Caches = []qexe.CacheBody{{Slot: 0, Body: body}}
		return exe
	}
	return []hostileExecutable{
		{"cached patch outside tile", cached(isa.LogicalInstr{Op: isa.LX, Target: 9})},
		{"cached self-CNOT", cached(isa.LogicalInstr{Op: isa.LCNOT, Target: 1, Arg: 1})},
		{"program self-CNOT", prog(isa.LogicalInstr{Op: isa.LCNOT, Target: 1, Arg: 1})},
		{"program cache load", prog(isa.LogicalInstr{Op: isa.LCacheLoad, Target: 1})},
		{"run of an empty slot", prog(isa.LogicalInstr{Op: isa.LCacheRun, Target: 1, Arg: 3})},
	}
}

// TestRunExecutableRejectsHostile runs each hostile executable on the
// default machine: each must fail with an error, not a panic.
func TestRunExecutableRejectsHostile(t *testing.T) {
	for _, h := range hostileExecutables() {
		if _, err := NewMachine(DefaultMachineConfig()).RunExecutable(h.exe, 64); err == nil {
			t.Errorf("%s: ran without an error", h.name)
		}
	}
}

// TestRunProgramCacheRunEveryTile pins how RunProgram dispatches a
// program's LCacheRun: its Target is a cache slot, not a logical qubit, so
// the run goes unmapped to every tile, and to none of them when any tile
// would refuse it. Each tile's MCE.Stats counts the cache hits it took.
func TestRunProgramCacheRunEveryTile(t *testing.T) {
	body := []isa.LogicalInstr{{Op: isa.LX, Target: 1}}
	cases := []struct {
		name     string
		tiles    int
		loaded   []int // tiles whose slot 2 holds body
		wantErr  string
		wantHits []uint64
	}{
		{"one tile", 1, []int{0}, "", []uint64{1}},
		{"two tiles", 2, []int{0, 1}, "", []uint64{1, 1}},
		{"unloaded slot", 1, nil, "tile 0: mce: cache run on empty slot 2", []uint64{0}},
		{"slot unloaded on one tile", 2, []int{0}, "tile 1: mce: cache run on empty slot 2", []uint64{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultMachineConfig()
			cfg.Tiles = tc.tiles
			m := NewMachine(cfg)
			for _, tile := range tc.loaded {
				if err := m.Master().LoadCache(tile, 2, body); err != nil {
					t.Fatal(err)
				}
			}
			p := compiler.NewProgram(2).Prep0(0)
			p.Instrs = append(p.Instrs, isa.LogicalInstr{Op: isa.LCacheRun, Target: 2})
			_, err := m.RunProgram(p, 0)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("RunProgram: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("RunProgram error %v, want one containing %q", err, tc.wantErr)
			}
			// Deliver whatever was dispatched before reading the counters.
			m.Master().Drain(64)
			for tile, tm := range m.Master().Tiles() {
				if _, _, hits, _, _ := tm.Stats(); hits != tc.wantHits[tile] {
					t.Errorf("tile %d: %d cache hit(s), want %d", tile, hits, tc.wantHits[tile])
				}
			}
		})
	}
}

// TestTileLocalBodyPassesCacheCheck pins that the distillation round body
// RunDistillationCached stages, folded onto a tile of 1 to 4 patches, is one
// the tile's MCE runs.
func TestTileLocalBodyPassesCacheCheck(t *testing.T) {
	for patches := 1; patches <= 4; patches++ {
		m := mce.New(mce.Config{
			Design: microcode.DesignUnitCell, Schedule: surface.Steane,
			Layout: compiler.NewLayout(3, patches), Seed: 1, CacheSlots: 1,
		})
		if err := m.LoadCacheSlot(0, tileLocalBody(patches)); err != nil {
			t.Fatalf("%d patches: %v", patches, err)
		}
		if err := m.Check(isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: 1}); err != nil {
			t.Errorf("%d patches: %v", patches, err)
		}
	}
}

// FuzzRunExecutable hardens the run path behind `questasm run`: whatever
// qexe.Decode accepts runs on a DefaultMachineConfig machine for up to 64
// cycles. An error is a valid outcome; a panic fails. The seeds are the
// hostile executables and README's quickstart program.
func FuzzRunExecutable(f *testing.F) {
	p, err := qasm.Parse(strings.NewReader("prep0 q0\nx q0\nmeasz q0\n"), 1)
	if err != nil {
		f.Fatal(err)
	}
	seeds := []*qexe.Executable{qexe.FromProgram(p)}
	for _, h := range hostileExecutables() {
		seeds = append(seeds, h.exe)
	}
	for _, exe := range seeds {
		var buf bytes.Buffer
		if err := exe.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Re-seal the trailing checksum, so a mutation reaches the run path
		// rather than failing the CRC check.
		if n := len(data) - 4; n >= 0 {
			data = bytes.Clone(data)
			binary.BigEndian.PutUint32(data[n:], crc32.ChecksumIEEE(data[:n]))
		}
		exe, err := qexe.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = NewMachine(DefaultMachineConfig()).RunExecutable(exe, 64)
	})
}
