package surface

import (
	"strings"
	"testing"
)

func TestPlanarLatticeCounts(t *testing.T) {
	cases := []struct{ d, data, ancX, ancZ int }{
		{2, 4, 0, 0}, // filled below
		{3, 13, 6, 6},
		{5, 41, 20, 20},
		{7, 85, 42, 42},
	}
	// d=2: 3x3 grid, 5 data, 2+2 ancillas.
	cases[0] = struct{ d, data, ancX, ancZ int }{2, 5, 2, 2}
	for _, c := range cases {
		l := NewPlanar(c.d)
		if got := len(l.Qubits(RoleData)); got != c.data {
			t.Errorf("d=%d: data qubits = %d, want %d", c.d, got, c.data)
		}
		if got := len(l.Qubits(RoleAncillaX)); got != c.ancX {
			t.Errorf("d=%d: X ancillas = %d, want %d", c.d, got, c.ancX)
		}
		if got := len(l.Qubits(RoleAncillaZ)); got != c.ancZ {
			t.Errorf("d=%d: Z ancillas = %d, want %d", c.d, got, c.ancZ)
		}
		if got := l.NumQubits(); got != c.data+c.ancX+c.ancZ {
			t.Errorf("d=%d: NumQubits = %d inconsistent", c.d, got)
		}
		if got := l.Distance(); got != c.d {
			t.Errorf("d=%d: Distance() = %d", c.d, got)
		}
	}
}

func TestFigure17UnitCell(t *testing.T) {
	// The paper's 5×5 unit cell: 13 data, 12 ancilla qubits.
	l := NewLattice(5, 5)
	if got := len(l.Qubits(RoleData)); got != 13 {
		t.Errorf("5x5 data qubits = %d, want 13", got)
	}
	anc := len(l.Qubits(RoleAncillaX)) + len(l.Qubits(RoleAncillaZ))
	if anc != 12 {
		t.Errorf("5x5 ancillas = %d, want 12", anc)
	}
	if l.NumQubits() != UnitCellQubits {
		t.Errorf("unit cell qubits = %d, want %d", l.NumQubits(), UnitCellQubits)
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	l := NewLattice(7, 9)
	for i := 0; i < l.NumQubits(); i++ {
		r, c := l.Coord(i)
		if l.Index(r, c) != i {
			t.Fatalf("round trip failed for %d -> (%d,%d)", i, r, c)
		}
	}
}

func TestPanics(t *testing.T) {
	expect := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	l := NewPlanar(3)
	expect("distance 1", func() { NewPlanar(1) })
	expect("bad lattice", func() { NewLattice(0, 5) })
	expect("index oob", func() { l.Index(9, 0) })
	expect("coord oob", func() { l.Coord(999) })
	expect("support of data", func() { l.StabilizerSupport(l.Index(0, 0)) })
}

func TestNeighborBoundaries(t *testing.T) {
	l := NewPlanar(3) // 5x5
	if l.Neighbor(0, 0, 0) != -1 {
		t.Error("north of top row should be -1")
	}
	if l.Neighbor(0, 0, 2) != -1 {
		t.Error("west of left col should be -1")
	}
	if got := l.Neighbor(2, 2, 1); got != l.Index(2, 3) {
		t.Errorf("east neighbor = %d", got)
	}
	if got := l.Neighbor(2, 2, 3); got != l.Index(3, 2) {
		t.Errorf("south neighbor = %d", got)
	}
}

func TestStabilizerSupportSizes(t *testing.T) {
	l := NewPlanar(5)
	for _, role := range []Role{RoleAncillaX, RoleAncillaZ} {
		for _, a := range l.Qubits(role) {
			sup := l.StabilizerSupport(a)
			if len(sup) < 2 || len(sup) > 4 {
				t.Errorf("ancilla %d support size %d outside [2,4]", a, len(sup))
			}
			for _, q := range sup {
				if l.RoleOf(q) != RoleData {
					t.Errorf("ancilla %d support contains non-data qubit %d (%s)", a, q, l.RoleOf(q))
				}
			}
		}
	}
	// Interior ancillas have exactly 4.
	interior := l.Index(2, 1)
	if got := len(l.StabilizerSupport(interior)); got != 4 {
		t.Errorf("interior ancilla support = %d, want 4", got)
	}
}

func TestLogicalOperatorsCommuteWithStabilizers(t *testing.T) {
	// Logical Z must overlap every X stabilizer an even number of times, and
	// logical X every Z stabilizer an even number of times; and they must
	// anticommute with each other (odd overlap).
	for _, d := range []int{2, 3, 5, 7} {
		l := NewPlanar(d)
		lz := toSet(l.LogicalZ())
		lx := toSet(l.LogicalX())
		if len(lz) != d || len(lx) != d {
			t.Errorf("d=%d: logical weights |Z|=%d |X|=%d, want %d", d, len(lz), len(lx), d)
		}
		for _, a := range l.Qubits(RoleAncillaX) {
			if overlap(l.StabilizerSupport(a), lz)%2 != 0 {
				t.Errorf("d=%d: logical Z anticommutes with X stabilizer %d", d, a)
			}
		}
		for _, a := range l.Qubits(RoleAncillaZ) {
			if overlap(l.StabilizerSupport(a), lx)%2 != 0 {
				t.Errorf("d=%d: logical X anticommutes with Z stabilizer %d", d, a)
			}
		}
		common := 0
		for q := range lz {
			if lx[q] {
				common++
			}
		}
		if common%2 != 1 {
			t.Errorf("d=%d: logical X and Z overlap %d times, want odd", d, common)
		}
	}
}

func toSet(qs []int) map[int]bool {
	s := make(map[int]bool, len(qs))
	for _, q := range qs {
		s[q] = true
	}
	return s
}

func overlap(qs []int, s map[int]bool) int {
	n := 0
	for _, q := range qs {
		if s[q] {
			n++
		}
	}
	return n
}

func TestStringRoleMap(t *testing.T) {
	l := NewLattice(3, 3)
	got := l.String()
	want := "DXD\nZDZ\nDXD\n"
	if got != want {
		t.Errorf("role map:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(RoleData.String(), "data") {
		t.Error("RoleData name")
	}
}

func TestPhysicalCostFormulas(t *testing.T) {
	if got := PhysicalQubitsPerLogical(10); got != 1250 {
		t.Errorf("12.5d² at d=10 = %v", got)
	}
}
