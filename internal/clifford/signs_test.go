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

// TestReplayMatchesApply pins Replay to Apply on random segments over every
// op, on tableaus of 1 to 5 words. Each segment is recorded with Apply from
// a random state. It is then run twice more from that state with the same
// random signs, and the same random Paulis between its ops: with Apply, and
// with Replay from the recorded constants, restoring the recorded end planes
// afterwards. Outcomes, signs and planes must agree. Apply must report a
// random outcome exactly when the rng drew, and such a segment is refused.
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
		base := New(n, rand.New(rand.NewSource(int64(trial))))
		for i := 0; i < 40; i++ {
			g := randomGate(gen, n, hot)
			base.Apply(g.Op, g.A, g.B)
		}
		seg := make([]Gate, 1+gen.Intn(16))
		for i := range seg {
			seg[i] = randomGate(gen, n, hot)
		}

		rec := base.Clone()
		src := &countingSource{Source: rand.NewSource(1)}
		rec.SetRNG(rand.New(src))
		start, end := rec.NewPlanes(), rec.NewPlanes()
		rec.SavePlanes(start)
		ks := make([]uint8, len(seg))
		random := false
		for i, g := range seg {
			k, _, rnd := rec.Apply(g.Op, g.A, g.B)
			ks[i], random = k, random || rnd
		}
		if random != (src.draws > 0) {
			t.Fatalf("trial %d: Apply reported random=%v with %d draws", trial, random, src.draws)
		}
		if random {
			refused++
			continue
		}
		accepted++
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
			t.Fatalf("trial %d: Paulis changed the X/Z planes", trial)
		}
		out := make([]uint8, n)
		for i, g := range seg {
			_, want, _ := direct.Apply(g.Op, g.A, g.B)
			replay.Replay(seg[i:i+1], ks[i:i+1], out)
			if (g.Op == OpMeasureZ || g.Op == OpMeasureX) && int(out[g.A]) != want {
				t.Fatalf("trial %d gate %d (%+v): replayed outcome %d, direct %d", trial, i, g, out[g.A], want)
			}
			paulis(direct, dp)
			paulis(replay, rp)
			replayed[g.Op]++
		}
		replay.RestorePlanes(end)
		if !direct.EqualPlanes(end) || !replay.EqualPlanes(end) {
			t.Fatalf("trial %d: end planes differ from the recording's", trial)
		}
		if !slices.Equal(direct.r[:2*n], replay.r[:2*n]) {
			t.Fatalf("trial %d: replayed signs differ from direct execution", trial)
		}
	}
	if accepted < 400 || refused < 400 {
		t.Errorf("%d segments replayed and %d refused; the test should exercise both", accepted, refused)
	}
	for op, c := range replayed {
		if c < 20 {
			t.Errorf("op %d replayed %d times; want every op exercised", op, c)
		}
	}
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
