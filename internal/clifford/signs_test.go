package clifford

import (
	"math/rand"
	"slices"
	"testing"
)

// countingSource counts the values a tableau's rng draws.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// randomGate draws a gate over every Op, mostly on the hot qubits so that
// measurements often repeat on a qubit and come out determined.
func randomGate(gen *rand.Rand, n int, hot []int) Gate {
	pick := func() int {
		if gen.Intn(5) == 0 {
			return gen.Intn(n)
		}
		return hot[gen.Intn(len(hot))]
	}
	g := Gate{Op: Op(gen.Intn(int(numOps))), A: pick()}
	if g.Op == OpCNOT || g.Op == OpCZ {
		if n == 1 {
			g.Op = OpH
			return g
		}
		for g.B = pick(); g.B == g.A; g.B = pick() {
		}
	}
	return g
}

// determined reports whether op on qubit q would draw no outcome at random
// in t's state: a Z-basis preparation or measurement needs Z_q's image,
// and an X-basis one X_q's, to carry no X.
func determined(t *Tableau, op Op, q int) bool {
	row := t.n + q
	if op == OpPrepPlus || op == OpMeasureX {
		row = q
	}
	x, _ := t.row(row)
	return allZero(x)
}

// randomWord draws a word as a compiled AWG word is: gates on distinct
// qubits, here about two thirds of them, paired at random for CNOT and CZ
// so that their offsets take both signs and cross word boundaries. A few
// qubits are prepared or measured, mostly in a basis t's state determines.
func randomWord(gen *rand.Rand, t *Tableau) []Gate {
	n := t.n
	perm := gen.Perm(n)
	var word []Gate
	for i := 0; i < n; i++ {
		a := perm[i]
		switch r := gen.Intn(24); {
		case r < 8:
			continue // idle
		case r == 8:
			op := OpPrep0 + Op(gen.Intn(5))
			for try := 0; try < 5 && !determined(t, op, a) && gen.Intn(8) != 0; try++ {
				op = OpPrep0 + Op(gen.Intn(5))
			}
			word = append(word, Gate{Op: op, A: a})
		case r < 14 && i+1 < n:
			op := OpCNOT
			if r&1 == 0 {
				op = OpCZ
			}
			i++
			word = append(word, Gate{Op: op, A: a, B: perm[i]})
		default:
			word = append(word, Gate{Op: OpH + Op(gen.Intn(int(OpCNOT-OpH))), A: a})
		}
	}
	return word
}

// TestReplayMatchesApply pins the packed replay to Apply. A segment is a
// list of words, each gates on distinct qubits. It is recorded with Apply
// from a random state, each word compiled with its constants by
// CompileSigns, and run twice more from that state with the same random
// signs, and the same random Paulis between its words: with Apply, and
// with ReplaySigns, restoring the recorded end planes afterwards. Outcomes,
// signs and planes must agree, and a word's outcome bits must be 0 where it
// measures nothing. Apply must report a random outcome exactly when the rng
// drew, and such a segment is refused.
//
// One set of segments is one gate per word, mostly on a few hot qubits, on
// tableaus of 1 to 5 words, so that every op is replayed alone, determined
// and random. The other is whole words of random ops at n = 1, 63, 64, 65
// and 171, where the CNOT and CZ groups shift across word boundaries.
func TestReplayMatchesApply(t *testing.T) {
	gen := rand.New(rand.NewSource(5))
	accepted, refused := 0, 0
	var replayed [numOps]int
	for trial := 0; trial < 2000; trial++ {
		words := 1 + trial%5
		n := 64*(words-1) + 1 + gen.Intn(64)
		hot := make([]int, 1+gen.Intn(5))
		for i := range hot {
			hot[i] = gen.Intn(n)
		}
		base := randomState(gen, n, hot, trial)
		seg := make([][]Gate, 1+gen.Intn(16))
		for i := range seg {
			seg[i] = []Gate{randomGate(gen, n, hot)}
		}
		if checkReplay(t, gen, base, seg, nil) {
			accepted++
			for _, w := range seg {
				replayed[w[0].Op]++
			}
		} else {
			refused++
		}
	}
	if accepted < 400 || refused < 400 {
		t.Errorf("%d one-gate segments replayed and %d refused; the test should exercise both", accepted, refused)
	}
	for op, c := range replayed {
		if c < 20 {
			t.Errorf("op %d replayed %d times; want every op exercised", op, c)
		}
	}

	for _, n := range []int{1, 63, 64, 65, 171} {
		accepted, refused, shifts := 0, 0, 0
		for trial := 0; trial < 200; trial++ {
			base := randomState(gen, n, []int{gen.Intn(n)}, trial)
			seg := make([][]Gate, 1+gen.Intn(4))
			if checkReplay(t, gen, base, seg, func(rec *Tableau) []Gate { return randomWord(gen, rec) }) {
				accepted++
				for _, w := range seg {
					for _, g := range w {
						if g.Op == OpCNOT || g.Op == OpCZ {
							shifts++
						}
					}
				}
			} else {
				refused++
			}
		}
		if accepted < 60 || refused == 0 {
			t.Errorf("n=%d: %d word segments replayed and %d refused; the test should exercise both", n, accepted, refused)
		}
		if n > 1 && shifts < 500 {
			t.Errorf("n=%d: %d CNOT/CZ replayed in whole words; want more", n, shifts)
		}
	}
}

// randomState returns an n-qubit tableau after 40 random gates, mostly on
// the hot qubits, with a measurement rng seeded by seed.
func randomState(gen *rand.Rand, n int, hot []int, seed int) *Tableau {
	base := New(n, rand.New(rand.NewSource(int64(seed))))
	for i := 0; i < 40; i++ {
		g := randomGate(gen, n, hot)
		base.Apply(g.Op, g.A, g.B)
	}
	return base
}

// checkReplay records seg from base, drawing each word with draw from the
// recording tableau when draw is not nil, and compares direct execution
// with the packed replay as TestReplayMatchesApply describes. It reports
// whether the segment was replayed; a refused one is not.
func checkReplay(t *testing.T, gen *rand.Rand, base *Tableau, seg [][]Gate, draw func(*Tableau) []Gate) bool {
	t.Helper()
	n := base.n
	rec := base.Clone()
	src := &countingSource{Source: rand.NewSource(1)}
	rec.SetRNG(rand.New(src))
	start, end := rec.NewPlanes(), rec.NewPlanes()
	rec.SavePlanes(start)
	sws := make([]SignWord, len(seg))
	random := false
	for i := range seg {
		if draw != nil {
			seg[i] = draw(rec)
		}
		ks := make([]uint8, len(seg[i]))
		for j, g := range seg[i] {
			k, _, rnd := rec.Apply(g.Op, g.A, g.B)
			ks[j], random = k, random || rnd
		}
		rec.CompileSigns(seg[i], ks, &sws[i])
	}
	if random != (src.draws > 0) {
		t.Fatalf("n=%d: Apply reported random=%v with %d draws", n, random, src.draws)
	}
	if random {
		return false
	}
	rec.SavePlanes(end)

	direct, replay := base.Clone(), base.Clone()
	seed := gen.Int63()
	dp, rp := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	paulis := func(tb *Tableau, g *rand.Rand) {
		for i := g.Intn(4); i > 0; i-- {
			tb.ApplyPauli(g.Intn(n), Pauli(g.Intn(4)))
		}
	}
	for i := 0; i < n; i++ {
		direct.ApplyPauli(i, Pauli(dp.Intn(4)))
		replay.ApplyPauli(i, Pauli(rp.Intn(4)))
	}
	if !replay.EqualPlanes(start) {
		t.Fatalf("n=%d: Paulis changed the X/Z planes", n)
	}
	w := replay.words
	out, want := make([]uint64, w), make([]uint64, w)
	for i, word := range seg {
		for j := range out {
			out[j], want[j] = ^uint64(0), 0
		}
		measures := false
		for _, g := range word {
			_, o, _ := direct.Apply(g.Op, g.A, g.B)
			want[g.A>>6] |= uint64(o) << (uint(g.A) & 63)
			measures = measures || g.Op == OpMeasureZ || g.Op == OpMeasureX
		}
		replay.ReplaySigns(&sws[i], out)
		if measures && !slices.Equal(out, want) {
			t.Fatalf("n=%d word %d (%+v): replayed outcomes %x, direct %x", n, i, word, out, want)
		}
		paulis(direct, dp)
		paulis(replay, rp)
	}
	replay.RestorePlanes(end)
	if !direct.EqualPlanes(end) || !replay.EqualPlanes(end) {
		t.Fatalf("n=%d: end planes differ from the recording's", n)
	}
	if !slices.Equal(direct.r, replay.r) {
		t.Fatalf("n=%d: replayed signs differ from direct execution", n)
	}
	return true
}

// TestPlanesSaveCompareRestore pins the plane snapshot: Paulis leave the
// planes equal, a gate that moves them does not, and a restore brings them
// back without touching the signs.
func TestPlanesSaveCompareRestore(t *testing.T) {
	tb := New(70, nil)
	tb.H(3)
	tb.CNOT(3, 69)
	p := tb.NewPlanes()
	tb.SavePlanes(p)
	tb.X(69)
	tb.Y(3)
	if !tb.EqualPlanes(p) {
		t.Fatal("Paulis changed the planes")
	}
	tb.H(69)
	if tb.EqualPlanes(p) {
		t.Fatal("H left the planes equal")
	}
	signs := slices.Clone(tb.r)
	tb.RestorePlanes(p)
	if !tb.EqualPlanes(p) || !slices.Equal(tb.r, signs) {
		t.Fatal("restore did not bring the planes back, or moved the signs")
	}
	defer func() {
		if recover() == nil {
			t.Error("planes of a 3-qubit tableau accepted by a 70-qubit one")
		}
	}()
	tb.EqualPlanes(New(3, nil).NewPlanes())
}
