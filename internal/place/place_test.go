package place

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"quest/internal/compiler"
	"quest/internal/core"
	"quest/internal/isa"
)

func TestInteractionGraph(t *testing.T) {
	p := compiler.NewProgram(4)
	p.CNOT(0, 1).CNOT(1, 0).CNOT(2, 3).H(0)
	g := InteractionGraph(p)
	if len(g) != 2 {
		t.Fatalf("edges = %d", len(g))
	}
	// Heaviest first: (0,1) weight 2 (direction-insensitive).
	if g[0].A != 0 || g[0].B != 1 || g[0].Weight != 2 {
		t.Errorf("edge 0 = %+v", g[0])
	}
	if g[1].Weight != 1 {
		t.Errorf("edge 1 = %+v", g[1])
	}
}

// TestPlaceIsDeterministic pins that placement depends on the program
// alone. InteractionGraph and Place both gather from maps, so each sorts
// what it gathered: edges by weight, heaviest first, then by qubits, and
// clusters by size, largest first, then by root. The program ties at every
// level, four disjoint pairs of equal weight on four two-patch tiles, and
// twenty calls must return the sorted edges and the pairs on tiles 0-3 in
// qubit order.
func TestPlaceIsDeterministic(t *testing.T) {
	p := compiler.NewProgram(8)
	p.CNOT(6, 7).CNOT(4, 5).CNOT(2, 3).CNOT(0, 1)
	wantEdges := []Interaction{{0, 1, 1}, {2, 3, 1}, {4, 5, 1}, {6, 7, 1}}
	wantTiles := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i := 0; i < 20; i++ {
		if g := InteractionGraph(p); !reflect.DeepEqual(g, wantEdges) {
			t.Fatalf("call %d: edges %v, want %v", i, g, wantEdges)
		}
		asg, err := Place(p, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(asg.TileOf, wantTiles) {
			t.Fatalf("call %d: tiles %v, want %v", i, asg.TileOf, wantTiles)
		}
	}
}

func TestPlaceCoLocatesPairs(t *testing.T) {
	// Two independent CNOT pairs, machine of 2 tiles × 2 patches: both
	// pairs must be co-located with zero cut CNOTs.
	p := compiler.NewProgram(4)
	p.CNOT(0, 2).CNOT(0, 2).CNOT(1, 3)
	asg, err := Place(p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if asg.CutCNOTs != 0 {
		t.Fatalf("cut CNOTs = %d, want 0", asg.CutCNOTs)
	}
	if asg.TileOf[0] != asg.TileOf[2] || asg.TileOf[1] != asg.TileOf[3] {
		t.Errorf("pairs split: %v", asg.TileOf)
	}
	// Patches within a tile distinct.
	if asg.TileOf[0] == asg.TileOf[2] && asg.PatchOf[0] == asg.PatchOf[2] {
		t.Error("two qubits on one patch")
	}
}

func TestPlaceCapacityErrors(t *testing.T) {
	p := compiler.NewProgram(5)
	p.H(4)
	if _, err := Place(p, 2, 2); err == nil {
		t.Error("over-capacity placement accepted")
	}
	if _, err := Place(p, 0, 2); err == nil {
		t.Error("zero tiles accepted")
	}
	bad := compiler.NewProgram(2)
	bad.Instrs = append(bad.Instrs, isa.LogicalInstr{Op: isa.LH, Target: 9})
	if _, err := Place(bad, 2, 2); err == nil {
		t.Error("invalid program placed")
	}
}

func TestPlaceOversizedClusterFallsBack(t *testing.T) {
	// A 3-qubit interaction chain on a machine with 2-patch tiles cannot be
	// fully co-located: at least one CNOT is cut, but placement succeeds.
	p := compiler.NewProgram(3)
	p.CNOT(0, 1).CNOT(1, 2)
	asg, err := Place(p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if asg.CutCNOTs == 0 {
		t.Error("3-chain on 2-patch tiles reported zero cuts")
	}
	if asg.CutCNOTs > 1 {
		t.Errorf("cut CNOTs = %d, want exactly 1 (the lighter edge)", asg.CutCNOTs)
	}
}

func TestRemapRunsOnMachine(t *testing.T) {
	// A program whose naive striping would put a CNOT across tiles: qubits
	// 0 and 3 interact. Placement co-locates them; the remapped program runs
	// on the machine.
	p := compiler.NewProgram(4)
	p.Prep0(0).Prep0(3).CNOT(0, 3).MeasZ(0).MeasZ(3)
	cfg := core.DefaultMachineConfig()
	cfg.Tiles = 2
	cfg.PatchesPerTile = 2
	// Naive run fails (cross-tile CNOT with striped mapping: q0→tile0,
	// q3→tile1).
	if _, err := core.NewMachine(cfg).RunProgram(p, 0); err == nil {
		t.Fatal("expected naive cross-tile CNOT to fail")
	}
	asg, err := Place(p, cfg.Tiles, cfg.PatchesPerTile)
	if err != nil {
		t.Fatal(err)
	}
	if asg.CutCNOTs != 0 {
		t.Fatalf("placement left %d cuts", asg.CutCNOTs)
	}
	mapped, err := asg.Remap(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.NewMachine(cfg).RunProgram(mapped, 0)
	if err != nil {
		t.Fatalf("remapped program failed: %v", err)
	}
	if !rep.Drained || rep.LogicalRetired != 5 {
		t.Fatalf("drained=%v retired=%d", rep.Drained, rep.LogicalRetired)
	}
}

// TestRemapLeavesCacheRunSlot pins that Remap moves qubits, not cache
// slots: placement moves q3 onto tile 0, and a cache run of slot 3 still
// names slot 3.
func TestRemapLeavesCacheRunSlot(t *testing.T) {
	p := compiler.NewProgram(4)
	p.Prep0(0).Prep0(3).CNOT(0, 3)
	run := isa.LogicalInstr{Op: isa.LCacheRun, Target: 3}
	p.Instrs = append(p.Instrs, run)
	asg, err := Place(p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if asg.GlobalQubit(3) == 3 {
		t.Fatal("placement left q3 in place; the test needs it moved")
	}
	mapped, err := asg.Remap(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := mapped.Instrs[len(mapped.Instrs)-1]; got != run {
		t.Errorf("remapped cache run = %v, want %v", got, run)
	}
}

func TestPropertyPlacementAlwaysLegal(t *testing.T) {
	f := func(seed int64, nRaw, tRaw, pRaw uint8, ops []uint8) bool {
		tiles := 1 + int(tRaw)%4
		patches := 1 + int(pRaw)%4
		n := 1 + int(nRaw)%(tiles*patches)
		prog := compiler.NewProgram(n)
		rng := rand.New(rand.NewSource(seed))
		for _, b := range ops {
			q := int(b) % n
			if b%2 == 0 || n == 1 {
				prog.H(q)
			} else {
				prog.CNOT(q, (q+1+rng.Intn(n-1))%n)
			}
		}
		asg, err := Place(prog, tiles, patches)
		if err != nil {
			return false
		}
		// Legal: every qubit on a distinct (tile, patch) within bounds.
		seen := map[[2]int]bool{}
		for q := 0; q < n; q++ {
			tp := [2]int{asg.TileOf[q], asg.PatchOf[q]}
			if tp[0] < 0 || tp[0] >= tiles || tp[1] < 0 || tp[1] >= patches {
				return false
			}
			if seen[tp] {
				return false
			}
			seen[tp] = true
		}
		// Remap always yields a valid program.
		if _, err := asg.Remap(prog); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
