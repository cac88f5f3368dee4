package decoder

import (
	"math/rand"
	"reflect"
	"testing"

	"quest/internal/heatmap"
	"quest/internal/surface"
)

// TestHeatRecordsDefectBirths pins the history hook: every defect Absorb
// births lands in the collector at the defect's own lattice coordinates,
// and reference-frame rounds record nothing.
func TestHeatRecordsDefectBirths(t *testing.T) {
	lat := surface.NewPlanar(3)
	h := NewHistory(lat)
	heat := heatmap.New(lat.Rows, lat.Cols)
	h.SetHeat(heat)
	anc := lat.Qubits(surface.RoleAncillaZ)[0]
	h.Absorb(map[int]int{anc: 0}) // round 0: reference, no defect
	if heat.TotalDefects() != 0 {
		t.Fatal("reference round recorded a defect")
	}
	h.Absorb(map[int]int{anc: 1}) // flip → defect
	if heat.TotalDefects() != 1 {
		t.Fatalf("defect count = %d, want 1", heat.TotalDefects())
	}
	r, c := lat.Coord(anc)
	if heat.Defects()[r][c] != 1 {
		t.Errorf("defect not recorded at its site (%d,%d): %v", r, c, heat.Defects())
	}
}

// TestHeatRecordsMatching pins the matcher hook: a two-defect match records
// both endpoints, the unweighted space-time chain length, and boundary
// matches go to the boundary counter.
func TestHeatRecordsMatching(t *testing.T) {
	lat := surface.NewPlanar(5)
	zs := lat.Qubits(surface.RoleAncillaZ)
	mk := func(q, round int) Defect {
		r, c := lat.Coord(q)
		return Defect{Round: round, Qubit: q, R: r, C: c, IsX: false}
	}
	defects := []Defect{mk(zs[0], 0), mk(zs[1], 0)}
	t.Run("exact", func(t *testing.T) {
		g := NewGlobalDecoder(lat)
		heat := heatmap.New(lat.Rows, lat.Cols)
		g.SetHeat(heat)
		match := g.Match(defects)
		if got := heat.Pairs() + heat.Boundary(); got < 1 {
			t.Fatalf("matching %+v recorded nothing", match)
		}
		// Endpoint count must equal 2 per pair + 1 per boundary match.
		var endpoints int64
		for _, row := range heat.Matched() {
			for _, v := range row {
				endpoints += v
			}
		}
		if want := 2*heat.Pairs() + heat.Boundary(); endpoints != want {
			t.Errorf("%d matched endpoints, want %d", endpoints, want)
		}
		// Chain-length histogram counts one entry per match.
		var chains int64
		for _, v := range heat.ChainLengths() {
			chains += v
		}
		if want := heat.Pairs() + heat.Boundary(); chains != want {
			t.Errorf("%d chain lengths recorded, want %d", chains, want)
		}
		if match.Weight < 0 {
			t.Errorf("negative matching weight %d", match.Weight)
		}
	})
}

// TestWindowForwardsHeat pins the forwarding: SetHeat on a window reaches
// the wrapped decoder, so windowed decoding records chain statistics.
func TestWindowForwardsHeat(t *testing.T) {
	lat := surface.NewPlanar(3)
	g := NewGlobalDecoder(lat)
	w := NewWindowDecoder(g, 2)
	heat := heatmap.New(lat.Rows, lat.Cols)
	w.SetHeat(heat)
	if g.heat != heat {
		t.Fatal("window did not forward the collector to its matcher")
	}
	zs := lat.Qubits(surface.RoleAncillaZ)
	r0, c0 := lat.Coord(zs[0])
	frame := NewPauliFrame()
	w.Absorb([]Defect{{Round: 0, Qubit: zs[0], R: r0, C: c0}}, frame)
	w.Absorb(nil, frame) // fills the window → flush → match
	if heat.Pairs()+heat.Boundary() == 0 {
		t.Error("windowed flush recorded no matches")
	}
}

// TestMatchHeatOffAllocs pins the heat-off Match path on ten d=9 defects
// at zero allocations once the decoder's scratch is warm: the matching is
// written into the decoder's own slices, and the heat hook must be a single
// nil check.
func TestMatchHeatOffAllocs(t *testing.T) {
	lat := surface.NewPlanar(9)
	g := NewGlobalDecoder(lat)
	defects := zDefects(lat, 10)
	g.Match(defects) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		g.Match(defects)
	})
	if allocs != 0 {
		t.Errorf("heat-off Match allocs/op = %v, want 0", allocs)
	}
}

// TestAbsorbFormsAgree pins the two round forms to one differencing step:
// fed the same random rounds — ancillas and data qubits measured or not,
// references forgotten mid-stream — a history absorbing rounds as bitsets
// and one absorbing the same rounds as maps return identical defects, count
// the same rounds and record identical heat. The bitset rounds carry
// random bits at unmeasured qubits and past the lattice, and the map rounds
// keys outside the lattice; both are ignored.
func TestAbsorbFormsAgree(t *testing.T) {
	lat := surface.NewPlanar(5)
	n := lat.NumQubits()
	dense, sparse := NewHistory(lat), NewHistory(lat)
	denseHeat, sparseHeat := heatmap.New(lat.Rows, lat.Cols), heatmap.New(lat.Rows, lat.Cols)
	dense.SetHeat(denseHeat)
	sparse.SetHeat(sparseHeat)
	rng := rand.New(rand.NewSource(5))
	words := (n + 63) / 64
	measured, outcomes := make([]uint64, words), make([]uint64, words)
	var defects int
	for round := 0; round < 400; round++ {
		synd := map[int]int{-1: 1, n: 0, n + 7: 1}
		for j := range outcomes {
			measured[j], outcomes[j] = 0, rng.Uint64()
		}
		for q := 0; q < n; q++ {
			if rng.Intn(4) != 0 {
				measured[q>>6] |= 1 << (q & 63)
				synd[q] = int(outcomes[q>>6] >> (q & 63) & 1)
			}
		}
		if round%37 == 5 {
			forget := lat.Qubits(surface.RoleAncillaX)[:3]
			dense.Forget(forget)
			sparse.Forget(forget)
		}
		got, want := dense.AbsorbRound(measured, outcomes), sparse.Absorb(synd)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: AbsorbRound defects %+v, Absorb %+v", round, got, want)
		}
		if dense.Round() != sparse.Round() {
			t.Fatalf("round %d: AbsorbRound counts %d rounds, Absorb %d", round, dense.Round(), sparse.Round())
		}
		defects += len(got)
	}
	if defects == 0 {
		t.Fatal("no defects over 400 random rounds; the comparison exercises nothing")
	}
	if !reflect.DeepEqual(denseHeat.Defects(), sparseHeat.Defects()) || denseHeat.TotalDefects() != int64(defects) {
		t.Errorf("heat differs: AbsorbRound %v, Absorb %v (%d defects returned)",
			denseHeat.Defects(), sparseHeat.Defects(), defects)
	}
}
