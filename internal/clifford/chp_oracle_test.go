package clifford

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// CHP is the Aaronson–Gottesman stabilizer tableau (Phys. Rev. A 70, 052328,
// 2004), the substrate's reference implementation. It stores n destabilizer
// and n stabilizer generators as rows of bit-packed X and Z Pauli indicators
// plus a sign bit. Every gate loops over all 2n rows and measurements are
// O(n²) worst case. Tableau must reproduce its outcome streams exactly:
// random outcomes happen at the same calls and draw one rng.Intn(2) each, and
// determined outcomes are physical, so the same rng seed yields the same
// bits. Rows 0..n-1 are destabilizers, rows n..2n-1 are stabilizers; row 2n
// is scratch space for deterministic measurements.
type CHP struct {
	n     int
	words int // uint64 words per row half
	// x[r] and z[r] are the X/Z indicator bit vectors of row r.
	x [][]uint64
	z [][]uint64
	r []uint8 // sign bit per row (0 => +1, 1 => -1)

	rng *rand.Rand
}

// NewCHP returns a fresh n-qubit CHP tableau initialized to |0...0>.
func NewCHP(n int, rng *rand.Rand) *CHP {
	if n <= 0 {
		panic(fmt.Sprintf("clifford: non-positive qubit count %d", n))
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	t := &CHP{
		n:     n,
		words: (n + 63) / 64,
		rng:   rng,
	}
	rows := 2*n + 1
	t.x = make([][]uint64, rows)
	t.z = make([][]uint64, rows)
	t.r = make([]uint8, rows)
	for i := range t.x {
		t.x[i] = make([]uint64, t.words)
		t.z[i] = make([]uint64, t.words)
	}
	t.Reset()
	return t
}

// Reset returns the state to |0...0>: destabilizer i = X_i, stabilizer i = Z_i.
func (t *CHP) Reset() {
	for i := range t.x {
		clear(t.x[i])
		clear(t.z[i])
		t.r[i] = 0
	}
	for i := 0; i < t.n; i++ {
		t.setX(i, i, true)     // destabilizer row i is X_i
		t.setZ(i+t.n, i, true) // stabilizer row i is Z_i
	}
}

func (t *CHP) setX(row, q int, v bool) {
	if v {
		t.x[row][q>>6] |= 1 << (uint(q) & 63)
	} else {
		t.x[row][q>>6] &^= 1 << (uint(q) & 63)
	}
}

func (t *CHP) setZ(row, q int, v bool) {
	if v {
		t.z[row][q>>6] |= 1 << (uint(q) & 63)
	} else {
		t.z[row][q>>6] &^= 1 << (uint(q) & 63)
	}
}

func (t *CHP) checkQubit(q int) {
	if q < 0 || q >= t.n {
		panic(fmt.Sprintf("clifford: qubit %d out of range [0,%d)", q, t.n))
	}
}

// H applies a Hadamard gate to qubit q.
func (t *CHP) H(q int) {
	t.checkQubit(q)
	w, b := q>>6, uint(q)&63
	mask := uint64(1) << b
	for i := 0; i < 2*t.n; i++ {
		xi := t.x[i][w] & mask
		zi := t.z[i][w] & mask
		// r ^= x*z
		if xi != 0 && zi != 0 {
			t.r[i] ^= 1
		}
		// swap x and z bits
		t.x[i][w] = t.x[i][w]&^mask | zi
		t.z[i][w] = t.z[i][w]&^mask | xi
	}
}

// S applies the phase gate S to qubit q.
func (t *CHP) S(q int) {
	t.checkQubit(q)
	w, b := q>>6, uint(q)&63
	mask := uint64(1) << b
	for i := 0; i < 2*t.n; i++ {
		xi := t.x[i][w] & mask
		zi := t.z[i][w] & mask
		if xi != 0 && zi != 0 {
			t.r[i] ^= 1
		}
		t.z[i][w] ^= xi
	}
}

// SDagger applies the inverse phase gate. S† = S·Z up to global phase, and on
// the tableau S† = S applied three times; we implement it directly: S†: X→-Y,
// which equals applying Z then S.
func (t *CHP) SDagger(q int) {
	t.Z(q)
	t.S(q)
}

// X applies Pauli-X to qubit q (bit flip). Stabilizer rows anticommuting with
// X_q (those with a Z component on q) flip sign.
func (t *CHP) X(q int) {
	t.checkQubit(q)
	w := q >> 6
	mask := uint64(1) << (uint(q) & 63)
	for i := 0; i < 2*t.n; i++ {
		if t.z[i][w]&mask != 0 {
			t.r[i] ^= 1
		}
	}
}

// Z applies Pauli-Z to qubit q (phase flip).
func (t *CHP) Z(q int) {
	t.checkQubit(q)
	w := q >> 6
	mask := uint64(1) << (uint(q) & 63)
	for i := 0; i < 2*t.n; i++ {
		if t.x[i][w]&mask != 0 {
			t.r[i] ^= 1
		}
	}
}

// Y applies Pauli-Y to qubit q.
func (t *CHP) Y(q int) {
	t.checkQubit(q)
	w := q >> 6
	mask := uint64(1) << (uint(q) & 63)
	for i := 0; i < 2*t.n; i++ {
		// Y anticommutes with both pure-X and pure-Z rows.
		if (t.x[i][w]&mask != 0) != (t.z[i][w]&mask != 0) {
			t.r[i] ^= 1
		}
	}
}

// CNOT applies a controlled-NOT with control c and target tq.
func (t *CHP) CNOT(c, tq int) {
	t.checkQubit(c)
	t.checkQubit(tq)
	if c == tq {
		panic("clifford: CNOT control equals target")
	}
	cw, cb := c>>6, uint(c)&63
	tw, tb := tq>>6, uint(tq)&63
	for i := 0; i < 2*t.n; i++ {
		xc := t.x[i][cw] >> cb & 1
		zc := t.z[i][cw] >> cb & 1
		xt := t.x[i][tw] >> tb & 1
		zt := t.z[i][tw] >> tb & 1
		// r ^= xc*zt*(xt ^ zc ^ 1)
		if xc&zt == 1 && xt^zc^1 == 1 {
			t.r[i] ^= 1
		}
		// xt ^= xc ; zc ^= zt
		t.x[i][tw] ^= xc << tb
		t.z[i][cw] ^= zt << cb
	}
}

// CZ applies a controlled-Z between qubits a and b (H on b, CNOT a→b, H on b).
func (t *CHP) CZ(a, b int) {
	t.H(b)
	t.CNOT(a, b)
	t.H(b)
}

// rowsum multiplies row h by row i (h ← i·h), tracking the sign via the
// standard CHP phase function g.
func (t *CHP) rowsum(h, i int) {
	// Sum of g over all qubits, computed word-wise. g counts the exponent of
	// i in the product of two Pauli operators; we only need the result mod 4
	// where the row phases contribute 2*r.
	var sum int
	for w := 0; w < t.words; w++ {
		x1, z1 := t.x[i][w], t.z[i][w]
		x2, z2 := t.x[h][w], t.z[h][w]
		// g per bit:
		//  (x1,z1)=(0,0): 0
		//  (1,1): z2 - x2
		//  (1,0): z2*(2*x2-1)
		//  (0,1): x2*(1-2*z2)
		// We count +1 and -1 contributions separately.
		// case (1,1): +1 when z2=1,x2=0 ; -1 when x2=1,z2=0
		c11p := x1 & z1 & z2 &^ x2
		c11m := x1 & z1 & x2 &^ z2
		// case (1,0): z2*(2*x2-1): z2=1,x2=1 => +1 ; z2=1,x2=0 => -1 ; z2=0 => 0
		c10p := x1 &^ z1 & z2 & x2
		c10m := x1 &^ z1 & z2 &^ x2
		// case (0,1): x2*(1-2*z2): x2=1,z2=0 => +1 ; x2=1,z2=1 => -1
		c01p := z1 &^ x1 & x2 &^ z2
		c01m := z1 &^ x1 & x2 & z2
		sum += bits.OnesCount64(c11p) + bits.OnesCount64(c10p) + bits.OnesCount64(c01p)
		sum -= bits.OnesCount64(c11m) + bits.OnesCount64(c10m) + bits.OnesCount64(c01m)
	}
	tot := sum + 2*int(t.r[h]) + 2*int(t.r[i])
	// tot mod 4 is always 0 or 2 for valid stabilizer products.
	if m := ((tot % 4) + 4) % 4; m == 2 {
		t.r[h] = 1
	} else {
		t.r[h] = 0
	}
	for w := 0; w < t.words; w++ {
		t.x[h][w] ^= t.x[i][w]
		t.z[h][w] ^= t.z[i][w]
	}
}

// MeasureZ measures qubit q in the computational basis and returns the
// outcome bit. Random outcomes consume one bit from the tableau's rng.
func (t *CHP) MeasureZ(q int) int {
	t.checkQubit(q)
	w := q >> 6
	mask := uint64(1) << (uint(q) & 63)
	// Look for a stabilizer row with an X component on q: outcome is random.
	p := -1
	for i := t.n; i < 2*t.n; i++ {
		if t.x[i][w]&mask != 0 {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome. All other rows with x bit set get multiplied by p.
		for i := 0; i < 2*t.n; i++ {
			if i != p && t.x[i][w]&mask != 0 {
				t.rowsum(i, p)
			}
		}
		// Destabilizer p-n becomes old stabilizer p; stabilizer p becomes ±Z_q.
		copy(t.x[p-t.n], t.x[p])
		copy(t.z[p-t.n], t.z[p])
		t.r[p-t.n] = t.r[p]
		clear(t.x[p])
		clear(t.z[p])
		t.setZ(p, q, true)
		out := uint8(t.rng.Intn(2))
		t.r[p] = out
		return int(out)
	}
	// Deterministic outcome: accumulate into scratch row 2n.
	s := 2 * t.n
	clear(t.x[s])
	clear(t.z[s])
	t.r[s] = 0
	for i := 0; i < t.n; i++ {
		if t.x[i][w]&mask != 0 { // destabilizer i anticommutes with Z_q
			t.rowsum(s, i+t.n)
		}
	}
	return int(t.r[s])
}

// MeasureX measures qubit q in the X basis (H, MeasureZ, H).
func (t *CHP) MeasureX(q int) int {
	t.H(q)
	out := t.MeasureZ(q)
	t.H(q)
	return out
}

// Prep0 projects qubit q to |0>: measure and flip on a 1 outcome.
func (t *CHP) Prep0(q int) {
	if t.MeasureZ(q) == 1 {
		t.X(q)
	}
}

// Prep1 projects qubit q to |1>.
func (t *CHP) Prep1(q int) {
	if t.MeasureZ(q) == 0 {
		t.X(q)
	}
}

// PrepPlus projects qubit q to |+>.
func (t *CHP) PrepPlus(q int) {
	Prep := t.MeasureX(q)
	if Prep == 1 {
		t.Z(q)
	}
}

// ExpectationZ returns +1/-1 if Z_q is deterministic in the current state and
// 0 if the outcome would be random. It does not disturb the state.
func (t *CHP) ExpectationZ(q int) int {
	t.checkQubit(q)
	w := q >> 6
	mask := uint64(1) << (uint(q) & 63)
	for i := t.n; i < 2*t.n; i++ {
		if t.x[i][w]&mask != 0 {
			return 0
		}
	}
	s := 2 * t.n
	clear(t.x[s])
	clear(t.z[s])
	t.r[s] = 0
	for i := 0; i < t.n; i++ {
		if t.x[i][w]&mask != 0 {
			t.rowsum(s, i+t.n)
		}
	}
	if t.r[s] == 1 {
		return -1
	}
	return +1
}

// ApplyPauli injects a Pauli error on qubit q.
func (t *CHP) ApplyPauli(q int, p Pauli) {
	switch p {
	case PauliI:
	case PauliX:
		t.X(q)
	case PauliY:
		t.Y(q)
	case PauliZ:
		t.Z(q)
	default:
		panic(fmt.Sprintf("clifford: undefined pauli %d", p))
	}
}

// MeasureObservable measures the expectation of a multi-qubit Pauli product
// without disturbing the state, returning +1/-1 if deterministic, 0 if
// random. xs and zs list qubits carrying X and Z factors respectively (a
// qubit in both lists carries Y up to phase).
func (t *CHP) MeasureObservable(xs, zs []int) int {
	// Build the observable as bit vectors.
	ox := make([]uint64, t.words)
	oz := make([]uint64, t.words)
	for _, q := range xs {
		t.checkQubit(q)
		ox[q>>6] |= 1 << (uint(q) & 63)
	}
	for _, q := range zs {
		t.checkQubit(q)
		oz[q>>6] |= 1 << (uint(q) & 63)
	}
	// The observable is deterministic iff it commutes with every stabilizer.
	// Symplectic product: x1·z2 + z1·x2 mod 2.
	anticommutes := func(row int) bool {
		c := 0
		for w := 0; w < t.words; w++ {
			c += bits.OnesCount64(t.x[row][w]&oz[w]) + bits.OnesCount64(t.z[row][w]&ox[w])
		}
		return c%2 == 1
	}
	for i := t.n; i < 2*t.n; i++ {
		if anticommutes(i) {
			return 0
		}
	}
	// Deterministic: express the observable as a product of stabilizers using
	// the destabilizer pairing, accumulating in the scratch row.
	s := 2 * t.n
	clear(t.x[s])
	clear(t.z[s])
	t.r[s] = 0
	for i := 0; i < t.n; i++ {
		if anticommutes(i) { // destabilizer i pairs with stabilizer i
			t.rowsum(s, i+t.n)
		}
	}
	// The scratch row should now equal the observable up to sign.
	for w := 0; w < t.words; w++ {
		if t.x[s][w] != ox[w] || t.z[s][w] != oz[w] {
			return 0 // observable not in the stabilizer group
		}
	}
	if t.r[s] == 1 {
		return -1
	}
	return +1
}
