package clifford

// Op names one operation of the tableau for Apply and Replay: the gate,
// preparation or measurement of the method of the same name.
type Op uint8

// The operations. OpCNOT and OpCZ act on two qubits.
const (
	OpH Op = iota
	OpS
	OpSDagger
	OpX
	OpY
	OpZ
	OpCNOT
	OpCZ
	OpPrep0
	OpPrep1
	OpPrepPlus
	OpMeasureZ
	OpMeasureX
	numOps
)

// Apply runs op on qubit a, with b the target of OpCNOT and the partner of
// OpCZ, as the method of the same name does. It returns the constant k of
// the op's sign update, which Replay takes, a measurement's outcome (0 for
// the other ops), and whether a preparation or measurement drew its outcome
// at random. A random outcome's sign update depends on the draw, so a
// segment during which one was drawn must not be replayed.
//
// k is 0 for every op but these: S and S† update X_a's image with one row
// product, CNOT and CZ update two images with one each, and k holds the
// first product's constant in bit 0 and the second's in bit 1.
func (t *Tableau) Apply(op Op, a, b int) (k uint8, out int, random bool) {
	switch op {
	case OpH:
		t.H(a)
	case OpS, OpSDagger:
		t.checkQubit(a)
		ph := 3 // S†X_aS = -iX_aZ_a
		if op == OpSDagger {
			ph = 1 // SX_aS† = iX_aZ_a
		}
		k = t.mulRow(a, t.n+a, ph)
	case OpX:
		t.X(a)
	case OpY:
		t.Y(a)
	case OpZ:
		t.Z(a)
	case OpCNOT:
		t.checkQubit(a)
		t.checkQubit(b)
		if a == b {
			panic("clifford: CNOT control equals target")
		}
		k = t.mulRow(a, b, 0)
		k |= t.mulRow(t.n+b, t.n+a, 0) << 1
	case OpCZ:
		t.checkQubit(a)
		t.checkQubit(b)
		if a == b {
			panic("clifford: CZ on a single qubit")
		}
		k = t.mulRow(a, t.n+b, 0)
		k |= t.mulRow(b, t.n+a, 0) << 1
	case OpMeasureZ:
		out, random = t.measureZ(a)
	case OpMeasureX:
		t.H(a)
		out, random = t.measureZ(a)
		t.H(a)
	case OpPrep0, OpPrep1:
		// Measure, and flip an outcome other than the wanted one.
		var m int
		m, random = t.measureZ(a)
		if (m == 1) == (op == OpPrep0) {
			t.X(a)
		}
	case OpPrepPlus:
		t.H(a)
		var m int
		m, random = t.measureZ(a)
		t.H(a)
		if m == 1 {
			t.Z(a)
		}
	default:
		panic("clifford: undefined op")
	}
	return k, out, random
}

// Gate is one operation on its qubits, in the sense Stim gives the word:
// preparations and measurements count. B is OpCNOT's target and OpCZ's
// partner.
type Gate struct {
	Op   Op
	A, B int
}

// Replay applies the sign updates of gates, in order, with the constants ks
// Apply returned for them, and writes each measurement's outcome to out at
// its qubit. It reads and writes signs only: it is exact where the X/Z
// planes are those Apply ran on and Apply drew nothing at random, and it
// leaves the planes as they are. A determined measurement reads one sign, a
// preparation sets one, H swaps two and the Paulis flip theirs.
func (t *Tableau) Replay(gates []Gate, ks []uint8, out []uint8) {
	r, n := t.r, t.n
	ks = ks[:len(gates)]
	for i, g := range gates {
		a, b, k := g.A, g.B, ks[i]
		switch g.Op {
		case OpH:
			r[a], r[n+a] = r[n+a], r[a]
		case OpS, OpSDagger:
			r[a] ^= r[n+a] ^ k
		case OpX:
			r[n+a] ^= 1
		case OpY:
			r[a] ^= 1
			r[n+a] ^= 1
		case OpZ:
			r[a] ^= 1
		case OpCNOT:
			r[a] ^= r[b] ^ k&1
			r[n+b] ^= r[n+a] ^ k>>1
		case OpCZ:
			r[a] ^= r[n+b] ^ k&1
			r[b] ^= r[n+a] ^ k>>1
		case OpPrep0:
			r[n+a] = 0
		case OpPrep1:
			r[n+a] = 1
		case OpPrepPlus:
			r[a] = 0
		case OpMeasureZ:
			out[a] = r[n+a]
		case OpMeasureX:
			out[a] = r[a]
		default:
			panic("clifford: replay of an undefined op")
		}
	}
}

// Planes is a copy of a tableau's X/Z planes: its 2n state rows without
// their signs, and without the scratch rows. Create one with NewPlanes.
type Planes struct{ x, z []uint64 }

// NewPlanes returns storage for t's X/Z planes, holding zeros.
func (t *Tableau) NewPlanes() Planes {
	w := 2 * t.n * t.words
	return Planes{x: make([]uint64, w), z: make([]uint64, w)}
}

// state returns the part of t's planes a Planes copies, panicking on
// storage made for another shape.
func (t *Tableau) state(p Planes) (x, z []uint64) {
	w := 2 * t.n * t.words
	if len(p.x) != w || len(p.z) != w {
		panic("clifford: planes saved from a tableau of another size")
	}
	return t.x[:w], t.z[:w]
}

// SavePlanes copies t's X/Z planes into p.
func (t *Tableau) SavePlanes(p Planes) {
	x, z := t.state(p)
	copy(p.x, x)
	copy(p.z, z)
}

// EqualPlanes reports whether t's X/Z planes equal those saved in p.
func (t *Tableau) EqualPlanes(p Planes) bool {
	x, z := t.state(p)
	for i := range x {
		if x[i] != p.x[i] || z[i] != p.z[i] {
			return false
		}
	}
	return true
}

// RestorePlanes copies p back into t's X/Z planes and leaves the signs.
func (t *Tableau) RestorePlanes(p Planes) {
	x, z := t.state(p)
	copy(x, p.x)
	copy(z, p.z)
}
