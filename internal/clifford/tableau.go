// Package clifford implements the stabilizer substrate of this repository.
// Surface-code syndrome-extraction circuits are pure Clifford circuits, so a
// stabilizer simulator executes exactly the instruction streams the control
// processor issues, at polynomial cost, while modelling genuine quantum
// behaviour (entanglement, measurement back-action, random outcomes).
//
// The tableau is kept inverted, as in Gidney's Stim (Quantum 5, 497, 2021).
// For a state U|0...0> it stores, for every qubit q, the images U†X_qU and
// U†Z_qU as rows of bit-packed X and Z Pauli indicators plus a sign bit. A
// gate G turns U into GU and so rewrites only the rows of its own qubits,
// each as a product of at most two rows: every gate, and every measurement
// whose outcome is determined, costs O(n/64) words. A random measurement
// collapses the state by column operations on all rows, O(n·w) bit updates
// for an image of X-weight w. The outcome streams are pinned, draw for draw,
// to the Aaronson–Gottesman (CHP) tableau kept as the test oracle.
//
// A stretch of operations that repeats, such as a QECC cycle, can be
// replayed from its signs alone. Three facts about the inverse tableau make
// that exact:
//
//   - X, Y and Z only flip signs. Pauli noise, the X/Z fix-ups inside
//     preparations and frame Paulis never change the X/Z planes.
//   - Whether a measurement is random depends on the X/Z planes alone.
//   - Every other operation's sign update is the old signs XOR a constant
//     that the X/Z planes fix: a row product's phase tally reads only X/Z.
//
// So a segment of operations started from equal X/Z planes ends on equal
// planes and gives the same determined outcomes, as the same functions of
// the signs, whatever Paulis land between its operations. Apply runs an
// operation and returns its constant. A recorded segment may be replayed on
// a tableau whose X/Z planes equal those its recording started from
// (SavePlanes, EqualPlanes), provided no preparation or measurement drew a
// random outcome while it was recorded. The planes it ended on are then
// copied back with RestorePlanes, before anything reads them.
//
// The signs are bit-packed, in two word-aligned halves: bit q of the first
// holds the sign of X_q's image and bit q of the second that of Z_q's, so a
// qubit's two signs share a bit position. Replay therefore works on words
// (signs.go): a word of operations on distinct qubits, compiled with its
// constants into a SignWord, updates the signs with a few masked word
// operations per kind of operation, whatever the number of qubits it acts
// on.
package clifford

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Tableau is the stabilizer state of n qubits. The zero value is not usable;
// create one with New. Row q is the image of X_q and row n+q the image of
// Z_q. Rows 2n and 2n+1 are scratch space: MeasureObservable builds its
// image in row 2n and holds its operator in row 2n+1, and a random
// measurement keeps its CNOT targets in row 2n's X half and the rows it
// may flip, laid out as the signs are, in both rows' Z halves. Scratch
// rows carry no sign.
type Tableau struct {
	n     int
	words int // uint64 words per row half
	// x and z hold the rows back to back: row i's X/Z indicator bit vectors
	// are x[i*words:(i+1)*words] and z[i*words:(i+1)*words].
	x, z []uint64
	// r holds the 2n state rows' signs (a set bit is -1), packed in two
	// halves of words words: row q's at bit q of r[:words] and row n+q's
	// at bit q of r[words:].
	r []uint64

	rng *rand.Rand
}

// New returns a fresh n-qubit tableau initialized to |0...0>, using rng as
// the source of measurement randomness. A nil rng gets a fixed-seed source so
// that zero-config uses are reproducible.
func New(n int, rng *rand.Rand) *Tableau {
	if n <= 0 {
		panic(fmt.Sprintf("clifford: non-positive qubit count %d", n))
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	words := (n + 63) / 64
	rows := 2*n + 2
	t := &Tableau{
		n:     n,
		words: words,
		x:     make([]uint64, rows*words),
		z:     make([]uint64, rows*words),
		r:     make([]uint64, 2*words),
		rng:   rng,
	}
	t.Reset()
	return t
}

// N returns the number of qubits.
func (t *Tableau) N() int { return t.n }

// SetRNG rebinds the source of measurement randomness. Together with Reset
// this lets a pooled tableau reproduce exactly the state of a fresh
// New(n, rng): the row storage is trial-independent, only the state bits and
// the random stream have to be rewound. A nil rng restores the fixed-seed
// default of New.
func (t *Tableau) SetRNG(rng *rand.Rand) {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	t.rng = rng
}

// Reset returns the state to |0...0>: U is the identity, so X_q and Z_q are
// their own images.
func (t *Tableau) Reset() {
	clear(t.x)
	clear(t.z)
	clear(t.r)
	for q := 0; q < t.n; q++ {
		t.x[q*t.words+q>>6] |= bit(q)
		t.z[(t.n+q)*t.words+q>>6] |= bit(q)
	}
}

func bit(q int) uint64 { return 1 << (uint(q) & 63) }

// signAt returns the index in r of row i's sign word and the sign's
// position in it.
func (t *Tableau) signAt(i int) (w int, s uint) {
	if i >= t.n {
		i += t.words<<6 - t.n
	}
	return i >> 6, uint(i) & 63
}

// sign returns row i's sign bit.
func (t *Tableau) sign(i int) uint8 {
	w, s := t.signAt(i)
	return uint8(t.r[w] >> s & 1)
}

// row returns row i's X and Z indicator words.
func (t *Tableau) row(i int) (x, z []uint64) {
	o := i * t.words
	return t.x[o : o+t.words], t.z[o : o+t.words]
}

func (t *Tableau) checkQubit(q int) {
	if q < 0 || q >= t.n {
		panic(fmt.Sprintf("clifford: qubit %d out of range [0,%d)", q, t.n))
	}
}

// mul multiplies row h by row i on the right (h ← h·i, ignoring h's sign)
// and returns the power of i the product picked up, plus 2 for a negative
// row i, modulo 4 (the value returned may exceed 3). The phase is Stim's
// running tally: at each qubit the single-qubit product x1z1 · x2z2 (x=z=1
// is Y) picks up ±i exactly when the two anticommute, and two bit planes
// count those factors mod 4 per qubit, +i adding 1 and -i adding 3. One
// popcount of each plane sums the qubits.
func (t *Tableau) mul(h, i int) int {
	oh, oi, w := h*t.words, i*t.words, t.words
	hx, hz := t.x[oh:oh+w:oh+w], t.z[oh:oh+w:oh+w]
	ix, iz := t.x[oi:oi+w:oi+w], t.z[oi:oi+w:oi+w]
	var c1, c2 uint64 // the low and high bit of each qubit's count
	for k := range hx {
		x1, z1, x2, z2 := hx[k], hz[k], ix[k], iz[k]
		x, z := x1^x2, z1^z2
		x1z2 := x1 & z2
		anti := x2&z1 ^ x1z2
		// Where they anticommute, the factor is -i exactly when the
		// product's bits and x1z2 have odd parity; adding 1 carries into
		// the high bit where the low bit was set, and adding 3 where it
		// was not.
		c2 ^= (c1 ^ x ^ z ^ x1z2) & anti
		c1 ^= anti
		hx[k], hz[k] = x, z
	}
	return bits.OnesCount64(c1) + 2*bits.OnesCount64(c2) + 2*int(t.sign(i))
}

// mulRow sets row h to i^ph · h · i. The product must be Hermitian, so the
// total power of i is even and becomes h's sign. It returns the constant of
// the sign update: h's new sign is its old sign XOR i's sign XOR the
// constant, half the power mul tallies from the X/Z planes.
func (t *Tableau) mulRow(h, i, ph int) uint8 {
	s := uint8((t.mul(h, i)+ph)>>1) & 1 // i's sign XOR the constant
	w, sh := t.signAt(h)
	t.r[w] ^= uint64(s) << sh
	return s ^ t.sign(i)
}

// H applies a Hadamard gate to qubit q: HX_qH = Z_q, so the two images of q
// swap.
func (t *Tableau) H(q int) {
	t.checkQubit(q)
	ax, az := t.row(q)
	bx, bz := t.row(t.n + q)
	for w := range ax {
		ax[w], bx[w] = bx[w], ax[w]
		az[w], bz[w] = bz[w], az[w]
	}
	w, m := q>>6, bit(q)
	d := (t.r[w] ^ t.r[t.words+w]) & m
	t.r[w] ^= d
	t.r[t.words+w] ^= d
}

// S applies the phase gate S to qubit q: S†X_qS = -iX_qZ_q.
func (t *Tableau) S(q int) { t.Apply(OpS, q, 0) }

// SDagger applies the inverse phase gate: SX_qS† = iX_qZ_q.
func (t *Tableau) SDagger(q int) { t.Apply(OpSDagger, q, 0) }

// X applies Pauli-X to qubit q (bit flip): XZ_qX = -Z_q.
func (t *Tableau) X(q int) {
	t.checkQubit(q)
	t.r[t.words+q>>6] ^= bit(q)
}

// Z applies Pauli-Z to qubit q (phase flip): ZX_qZ = -X_q.
func (t *Tableau) Z(q int) {
	t.checkQubit(q)
	t.r[q>>6] ^= bit(q)
}

// Y applies Pauli-Y to qubit q, which negates both X_q and Z_q.
func (t *Tableau) Y(q int) {
	t.checkQubit(q)
	t.r[q>>6] ^= bit(q)
	t.r[t.words+q>>6] ^= bit(q)
}

// CNOT applies a controlled-NOT with control c and target tq. It maps X_c to
// X_cX_tq and Z_tq to Z_cZ_tq and leaves X_tq and Z_c alone.
func (t *Tableau) CNOT(c, tq int) { t.Apply(OpCNOT, c, tq) }

// CZ applies a controlled-Z between qubits a and b. It maps X_a to X_aZ_b and
// X_b to Z_aX_b and leaves both Z images alone.
func (t *Tableau) CZ(a, b int) { t.Apply(OpCZ, a, b) }

// MeasureZ measures qubit q in the computational basis and returns the
// outcome bit. Random outcomes consume one bit from the tableau's rng.
//
// The outcome is determined exactly when the image of Z_q has no X
// component: it is then ±Z-only, which fixes |0...0>, and its sign is the
// outcome. Otherwise the state collapses. With pivot p, the image's lowest X
// position, gates that leave |0...0> alone are prepended to U: CNOTs from p
// clear the image's other X positions and an S turns a Y at p into X. A
// prepended H then maps the image to ±Z-only, which projects the state onto
// an eigenstate of Z_q; a prepended X flips it to the drawn outcome.
func (t *Tableau) MeasureZ(q int) int {
	out, _ := t.measureZ(q)
	return out
}

// measureZ is MeasureZ that also reports whether the outcome was random.
//
// A collapse walks the rows as flat words. A row with no X at p only
// picks up the parity of its Z bits at the CNOT targets, folded into one
// popcount over the targets' non-zero words. The rows that had X at p are
// the ones whose image the final H gives Z at p, so they are the ones a
// drawn 1 flips; the walk marks them in the scratch rows' Z halves, laid
// out as the signs are, and a flip is one XOR per sign word.
func (t *Tableau) measureZ(q int) (out int, random bool) {
	t.checkQubit(q)
	w, rows := t.words, 2*t.n
	zq := t.n + q
	qx, qz := t.row(zq)
	pw := -1
	for i, v := range qx {
		if v != 0 {
			pw = i
			break
		}
	}
	if pw < 0 {
		return int(t.sign(zq)), false
	}
	pm := qx[pw] & -qx[pw]
	// The CNOT targets, kept in the scratch row while the rows change, and
	// the span [lo, hi) of their non-zero words.
	kx := t.x[rows*w : rows*w+w]
	copy(kx, qx)
	kx[pw] &^= pm
	lo, hi := w, 0
	for i, k := range kx {
		if k != 0 {
			lo, hi = min(lo, i), i+1
		}
	}
	// Whether the image carries Y at p once the CNOTs have run.
	var par uint64
	for i := lo; i < hi; i++ {
		par ^= qz[i] & kx[i]
	}
	y := (qz[pw]&pm != 0) != (bits.OnesCount64(par)&1 == 1)
	// flip marks the rows with X at p, in r's layout over both scratch
	// rows' Z halves.
	flip := t.z[rows*w : rows*w+2*w]
	clear(flip)
	// Prepending V conjugates every row by V: the updates below are CHP's
	// column rules for CNOT(p,k), S† and H at p.
	for i, o := 0, 0; i < rows; i, o = i+1, o+w {
		xp, zp := t.x[o+pw]&pm != 0, t.z[o+pw]&pm != 0
		if !xp {
			par = 0
			for j := lo; j < hi; j++ {
				par ^= t.z[o+j] & kx[j]
			}
			t.z[o+pw] &^= pm
			if zp != (bits.OnesCount64(par)&1 == 1) {
				t.x[o+pw] |= pm
			} else {
				t.x[o+pw] &^= pm
			}
			continue
		}
		sw, sh := t.signAt(i)
		sm := uint64(1) << sh
		flip[sw] |= sm
		s := t.r[sw]&sm != 0
		for j := lo; j < hi; j++ {
			x, z := t.x[o+j], t.z[o+j]
			for m := kx[j]; m != 0; m &= m - 1 {
				km := m & -m
				zk := z&km != 0
				if zk && (x&km != 0) == zp {
					s = !s
				}
				x ^= km
				zp = zp != zk
			}
			t.x[o+j] = x
		}
		if y {
			if !zp {
				s = !s
			}
			zp = !zp
		}
		if zp {
			s = !s
			t.x[o+pw] |= pm
		} else {
			t.x[o+pw] &^= pm
		}
		t.z[o+pw] |= pm
		if s {
			t.r[sw] |= sm
		} else {
			t.r[sw] &^= sm
		}
	}
	drawn := uint8(t.rng.Intn(2))
	if t.sign(zq) != drawn {
		for j, m := range flip {
			t.r[j] ^= m
		}
	}
	return int(drawn), true
}

// MeasureX measures qubit q in the X basis (H, MeasureZ, H).
func (t *Tableau) MeasureX(q int) int {
	_, out, _ := t.Apply(OpMeasureX, q, 0)
	return out
}

// Prep0 projects qubit q to |0>: measure and flip on a 1 outcome.
func (t *Tableau) Prep0(q int) { t.Apply(OpPrep0, q, 0) }

// Prep1 projects qubit q to |1>.
func (t *Tableau) Prep1(q int) { t.Apply(OpPrep1, q, 0) }

// PrepPlus projects qubit q to |+>.
func (t *Tableau) PrepPlus(q int) { t.Apply(OpPrepPlus, q, 0) }

// ExpectationZ returns +1/-1 if Z_q is deterministic in the current state and
// 0 if the outcome would be random. It does not disturb the state.
func (t *Tableau) ExpectationZ(q int) int {
	t.checkQubit(q)
	x, _ := t.row(t.n + q)
	for _, v := range x {
		if v != 0 {
			return 0
		}
	}
	return 1 - 2*int(t.sign(t.n+q))
}

// Pauli is a single-qubit Pauli error used for noise injection.
type Pauli uint8

// Pauli error kinds. PauliI is the identity (no error).
const (
	PauliI Pauli = iota
	PauliX
	PauliY
	PauliZ
)

// String returns I, X, Y or Z.
func (p Pauli) String() string {
	switch p {
	case PauliI:
		return "I"
	case PauliX:
		return "X"
	case PauliY:
		return "Y"
	case PauliZ:
		return "Z"
	}
	return fmt.Sprintf("Pauli(%d)", uint8(p))
}

// ApplyPauli injects a Pauli error on qubit q.
func (t *Tableau) ApplyPauli(q int, p Pauli) {
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
// qubit in both lists carries Y). It is used by tests to check logical
// operators of encoded states.
//
// The observable's image is the product of its factors' images, built in the
// scratch row; like MeasureZ it is deterministic exactly when the image has
// no X component, and its phase is then the eigenvalue.
func (t *Tableau) MeasureObservable(xs, zs []int) int {
	s := 2 * t.n
	sx, sz := t.row(s)
	ox, oz := t.row(s + 1)
	clear(sx)
	clear(sz)
	clear(ox)
	clear(oz)
	for _, q := range xs {
		t.checkQubit(q)
		ox[q>>6] |= bit(q)
	}
	for _, q := range zs {
		t.checkQubit(q)
		oz[q>>6] |= bit(q)
	}
	e := 0 // power of i in front of the image
	for w := range ox {
		for m := ox[w] | oz[w]; m != 0; m &= m - 1 {
			q, b := w<<6|bits.TrailingZeros64(m), m&-m
			if ox[w]&b != 0 {
				e += t.mul(s, q)
			}
			if oz[w]&b != 0 {
				e += t.mul(s, t.n+q)
				if ox[w]&b != 0 {
					e++ // Y = iXZ
				}
			}
		}
	}
	for _, v := range sx {
		if v != 0 {
			return 0
		}
	}
	return 1 - e&2
}

// Clone returns an independent deep copy sharing the rng source.
func (t *Tableau) Clone() *Tableau {
	c := *t
	c.x = append([]uint64(nil), t.x...)
	c.z = append([]uint64(nil), t.z...)
	c.r = append([]uint64(nil), t.r...)
	return &c
}
