package clifford

import "fmt"

// Op names one operation of the tableau for Apply and CompileSigns: the
// gate, preparation or measurement of the method of the same name.
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
// the op's sign update, which CompileSigns takes, a measurement's outcome (0 for
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

// SignWord is a word of gates compiled for replay on the packed signs: the
// sign updates of gates on distinct qubits, with the constants Apply
// returned for them, as a few masked word operations. Every gate of a word
// reads and writes only its own qubits' signs, so the updates commute and
// any grouping of them is exact: one mask per kind of update, and one
// shift-and-mask per bitset for the CNOTs or CZs that share an offset
// between their qubits. CompileSigns fills it, reusing its storage.
type SignWord struct {
	ops []signOp
	// masks holds each op's mask, one row of sign words long, at the op's
	// offset: first the fixed kinds' masks in kind order, the
	// measurement's two (Z basis, then X basis) side by side, then one per
	// shifting op.
	masks []uint64
	// seen marks the qubits the compiled gates act on.
	seen []uint64
}

// signOp is one masked update of the packed signs. rx and rz below are the
// X and Z images' halves of Tableau.r and m the op's mask.
type signOp struct {
	kind  signKind
	shift int // a shifting op's offset: the bit read at q lands at q+shift
	off   int // the mask's offset in SignWord.masks
}

type signKind uint8

const (
	signClearZ  signKind = iota // rz &^= m: Prep0
	signSetZ                    // rz |= m: Prep1
	signClearX                  // rx &^= m: PrepPlus
	signSwap                    // rx and rz swap under m: H
	signPhase                   // rx ^= rz & m: S and S†
	signFlipX                   // rx ^= m: Z, Y and the constants
	signFlipZ                   // rz ^= m: X, Y and the constants
	signMeasure                 // out = rz&mz | rx&mx: MeasureZ and MeasureX
	signShiftXX                 // rx ^= (rx & m) shifted: CNOT control from target
	signShiftZZ                 // rz ^= (rz & m) shifted: CNOT target from control
	signShiftXZ                 // rx ^= (rz & m) shifted: CZ, either way
)

// fixedMasks is the number of masks every SignWord holds: one per fixed
// kind, and two for signMeasure.
const fixedMasks = int(signMeasure) + 2

// CompileSigns compiles gates, which must act on distinct qubits, with the
// constants ks Apply returned for them, into sw, replacing what it held. It
// panics on two gates that share a qubit: their updates need not commute.
//
// The updates are those of Apply on one qubit's signs. A preparation sets
// its basis's sign, H swaps the qubit's two, S and S† add the Z image's
// sign and the constant to the X image's, and the Paulis flip theirs.
// CNOT(a, b) adds b's X sign and k's bit 0 to a's, and a's Z sign and k's
// bit 1 to b's. CZ(a, b) adds b's Z sign and k's bit 0 to a's X sign, and
// a's Z sign and k's bit 1 to b's. A measurement reads its basis's sign.
func (t *Tableau) CompileSigns(gates []Gate, ks []uint8, sw *SignWord) {
	w := t.words
	sw.ops = sw.ops[:0]
	sw.masks = append(sw.masks[:0], make([]uint64, fixedMasks*w)...)
	sw.seen = append(sw.seen[:0], make([]uint64, w)...)
	set := func(k signKind, q int) { sw.masks[int(k)*w+q>>6] |= bit(q) }
	claim := func(q int) {
		t.checkQubit(q)
		if sw.seen[q>>6]&bit(q) != 0 {
			panic(fmt.Sprintf("clifford: qubit %d carries two gates of one word", q))
		}
		sw.seen[q>>6] |= bit(q)
	}
	for i, g := range gates {
		a, b, k := g.A, g.B, ks[i]
		claim(a)
		switch g.Op {
		case OpH:
			set(signSwap, a)
		case OpS, OpSDagger:
			set(signPhase, a)
			if k&1 != 0 {
				set(signFlipX, a)
			}
		case OpX:
			set(signFlipZ, a)
		case OpY:
			set(signFlipX, a)
			set(signFlipZ, a)
		case OpZ:
			set(signFlipX, a)
		case OpCNOT, OpCZ:
			claim(b)
			toA, toB, kb := signShiftXX, signShiftZZ, signFlipZ
			if g.Op == OpCZ {
				toA, toB, kb = signShiftXZ, signShiftXZ, signFlipX
			}
			if k&1 != 0 {
				set(signFlipX, a)
			}
			if k&2 != 0 {
				set(kb, b)
			}
			sw.shifted(toA, a-b, b, w)
			sw.shifted(toB, b-a, a, w)
		case OpPrep0:
			set(signClearZ, a)
		case OpPrep1:
			set(signSetZ, a)
		case OpPrepPlus:
			set(signClearX, a)
		case OpMeasureZ:
			set(signMeasure, a)
		case OpMeasureX:
			set(signMeasure+1, a) // the X-basis mask, after the Z-basis one
		default:
			panic("clifford: compile of an undefined op")
		}
	}
	for k := signClearZ; k <= signMeasure; k++ {
		n := w
		if k == signMeasure {
			n = 2 * w
		}
		if off := int(k) * w; !allZero(sw.masks[off : off+n]) {
			sw.ops = append(sw.ops, signOp{kind: k, off: off})
		}
	}
}

// shifted adds the bit read at q to the mask of sw's shifting op of kind k
// and offset shift, opening the op if the word has none yet.
func (sw *SignWord) shifted(k signKind, shift, q, w int) {
	off := -1
	for _, op := range sw.ops {
		if op.kind == k && op.shift == shift {
			off = op.off
			break
		}
	}
	if off < 0 {
		off = len(sw.masks)
		sw.masks = append(sw.masks, make([]uint64, w)...)
		sw.ops = append(sw.ops, signOp{kind: k, shift: shift, off: off})
	}
	sw.masks[off+q>>6] |= bit(q)
}

func allZero(s []uint64) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// ReplaySigns applies the sign updates sw was compiled with and, when the
// word measures, writes its outcomes to out, one row of sign words: bit q
// is qubit q's outcome, and 0 where the word measures nothing. It reads and
// writes signs only: it is exact where the X/Z planes are those the
// compiled constants were recorded on and the recording drew nothing at
// random, and it leaves the planes as they are.
func (t *Tableau) ReplaySigns(sw *SignWord, out []uint64) {
	w := t.words
	rx, rz := t.r[:w:w], t.r[w:2*w:2*w]
	for _, op := range sw.ops {
		m := sw.masks[op.off : op.off+w : op.off+w]
		switch op.kind {
		case signClearZ:
			for j, v := range m {
				rz[j] &^= v
			}
		case signSetZ:
			for j, v := range m {
				rz[j] |= v
			}
		case signClearX:
			for j, v := range m {
				rx[j] &^= v
			}
		case signSwap:
			for j, v := range m {
				d := (rx[j] ^ rz[j]) & v
				rx[j] ^= d
				rz[j] ^= d
			}
		case signPhase:
			for j, v := range m {
				rx[j] ^= rz[j] & v
			}
		case signFlipX:
			for j, v := range m {
				rx[j] ^= v
			}
		case signFlipZ:
			for j, v := range m {
				rz[j] ^= v
			}
		case signMeasure:
			mx := sw.masks[op.off+w : op.off+2*w : op.off+2*w]
			out = out[:w:w]
			for j, v := range m {
				out[j] = rz[j]&v | rx[j]&mx[j]
			}
		case signShiftXX:
			xorShifted(rx, rx, m, op.shift)
		case signShiftZZ:
			xorShifted(rz, rz, m, op.shift)
		case signShiftXZ:
			xorShifted(rx, rz, m, op.shift)
		}
	}
}

// xorShifted adds the bits of src under m to dst, each moved shift places
// up (down for a negative shift), carrying across word boundaries. The
// bits m selects and the places they land on are distinct qubits' signs,
// so dst may be src.
func xorShifted(dst, src, m []uint64, shift int) {
	if shift >= 0 {
		ws, bs := shift>>6, uint(shift)&63
		for j, v := range m {
			if v &= src[j]; v == 0 {
				continue
			}
			dst[j+ws] ^= v << bs
			if bs != 0 && j+ws+1 < len(dst) {
				dst[j+ws+1] ^= v >> (64 - bs)
			}
		}
		return
	}
	ws, bs := (-shift)>>6, uint(-shift)&63
	for j, v := range m {
		if v &= src[j]; v == 0 {
			continue
		}
		dst[j-ws] ^= v >> bs
		if bs != 0 && j-ws-1 >= 0 {
			dst[j-ws-1] ^= v << (64 - bs)
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
