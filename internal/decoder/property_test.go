package decoder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"quest/internal/surface"
)

// randomDefects draws k distinct same-type defects on the lattice.
func randomDefects(lat surface.Lattice, rng *rand.Rand, k int) []Defect {
	zs := lat.Qubits(surface.RoleAncillaZ)
	seen := map[int]bool{}
	var out []Defect
	for len(out) < k && len(seen) < len(zs) {
		q := zs[rng.Intn(len(zs))]
		if seen[q] {
			continue
		}
		seen[q] = true
		out = append(out, mkDefect(lat, q, rng.Intn(3)))
	}
	return out
}

// enumerate all perfect matchings (with boundary options) of the defect set
// and return the minimum weight — brute force ground truth for small n.
func bruteForceMin(lat surface.Lattice, defects []Defect) int {
	n := len(defects)
	best := 1 << 30
	var rec func(used uint, weight int)
	rec = func(used uint, weight int) {
		if weight >= best {
			return
		}
		i := -1
		for k := 0; k < n; k++ {
			if used&(1<<k) == 0 {
				i = k
				break
			}
		}
		if i < 0 {
			if weight < best {
				best = weight
			}
			return
		}
		rec(used|1<<i, weight+boundaryDistance(lat, defects[i]))
		for j := i + 1; j < n; j++ {
			if used&(1<<j) != 0 {
				continue
			}
			rec(used|1<<i|1<<j, weight+spaceTimeDistance(defects[i], defects[j]))
		}
	}
	rec(0, 0)
	return best
}

// TestPropertyExactMatcherIsOptimal: the DP matcher's weight equals the
// brute-force optimum on random instances.
func TestPropertyExactMatcherIsOptimal(t *testing.T) {
	lat := surface.NewPlanar(7)
	g := NewGlobalDecoder(lat)
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw)%7
		defects := randomDefects(lat, rng, k)
		if len(defects) == 0 {
			return true
		}
		return g.exactMatch(defects).Weight == bruteForceMin(lat, defects)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMatchersOrdering: exact ≤ greedy on the same instance, always.
func TestPropertyMatchersOrdering(t *testing.T) {
	lat := surface.NewPlanar(9)
	g := NewGlobalDecoder(lat)
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(kRaw)%8
		defects := randomDefects(lat, rng, k)
		if len(defects) < 2 {
			return true
		}
		return g.greedyMatch(defects).Weight >= g.exactMatch(defects).Weight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFrameParityLinearity: applying two correction sets to a frame
// yields the XOR of their individual parities on any support.
func TestPropertyFrameParityLinearity(t *testing.T) {
	f := func(seed int64, aRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) []Correction {
			out := make([]Correction, n)
			for i := range out {
				out[i] = Correction{Qubit: rng.Intn(20), FlipX: rng.Intn(2) == 0}
			}
			return out
		}
		setA := mk(int(aRaw) % 12)
		setB := mk(int(bRaw) % 12)
		support := rng.Perm(20)[:10]
		fa := NewPauliFrame()
		for _, c := range setA {
			fa.Apply(c)
		}
		fb := NewPauliFrame()
		for _, c := range setB {
			fb.Apply(c)
		}
		fab := NewPauliFrame()
		for _, c := range append(append([]Correction{}, setA...), setB...) {
			fab.Apply(c)
		}
		for _, flipX := range []bool{false, true} {
			if fab.ParityOn(support, flipX) != fa.ParityOn(support, flipX)^fb.ParityOn(support, flipX) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyHistoryDefectParity: over any syndrome sequence, the number of
// defects an ancilla emits has the same parity as (first bit) XOR (last
// bit) — defects are differences, so they telescope.
func TestPropertyHistoryDefectParity(t *testing.T) {
	lat := surface.NewPlanar(3)
	a := lat.Qubits(surface.RoleAncillaZ)[2]
	f := func(bitsRaw []bool) bool {
		if len(bitsRaw) < 2 {
			return true
		}
		h := NewHistory(lat)
		count := 0
		for _, b := range bitsRaw {
			bit := 0
			if b {
				bit = 1
			}
			count += len(h.Absorb(map[int]int{a: bit}))
		}
		first, last := 0, 0
		if bitsRaw[0] {
			first = 1
		}
		if bitsRaw[len(bitsRaw)-1] {
			last = 1
		}
		return count%2 == first^last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
