package noise

import (
	"math"
	"math/rand"
	"testing"
)

// setAVX2 selects the sampler's path for the rest of tb: the AVX2 kernels
// when on is true, the Go loops otherwise. It restores the CPU's choice
// when tb ends.
func setAVX2(tb testing.TB, on bool) {
	tb.Helper()
	cpu := useAVX2
	tb.Cleanup(func() { useAVX2 = cpu })
	useAVX2 = on
}

// samplerPath is one path of the sampler: the AVX2 kernels or the Go
// loops.
type samplerPath struct {
	name string
	avx2 bool
}

// samplerPaths returns the paths this CPU runs: "avx2" and "go" where it
// has the kernels, "go" alone elsewhere.
func samplerPaths() []samplerPath {
	if useAVX2 {
		return []samplerPath{{"avx2", true}, {"go", false}}
	}
	return []samplerPath{{"go", false}}
}

// requireAVX2 skips tb on a CPU without the kernels: the Go loops are then
// the only path, and every other test runs them.
func requireAVX2(tb testing.TB) {
	tb.Helper()
	if !useAVX2 {
		tb.Skip("no AVX2 kernels on this CPU")
	}
}

// TestFillKernelMatchesGo pins the vector re-seed to the Go loop: over
// 10,000 seeds, the edge cases TestFastSourceMatchesMathRand starts from
// and then random ones, Seed leaves the same register on both paths.
func TestFillKernelMatchesGo(t *testing.T) {
	requireAVX2(t)
	seeds := []int64{
		0, 1, -1, lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1, 2 * lehmerM,
		1 << 31, -(1 << 31), zeroSeed, -zeroSeed, 1 << 62, -(1 << 62),
		math.MaxInt64, math.MinInt64,
	}
	pick := rand.New(rand.NewSource(20261019))
	for len(seeds) < 10000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	setAVX2(t, true)
	var vec, ref fastSource
	for _, seed := range seeds {
		useAVX2 = true
		vec.Seed(seed)
		useAVX2 = false
		ref.Seed(seed)
		if vec != ref {
			for i := range vec.vec {
				if vec.vec[i] != ref.vec[i] {
					t.Fatalf("seed %d: register word %d = %#x on the kernel, %#x in Go", seed, i, vec.vec[i], ref.vec[i])
				}
			}
			t.Fatalf("seed %d: indices (%d, %d) on the kernel, (%d, %d) in Go", seed, vec.tap, vec.feed, ref.tap, ref.feed)
		}
	}
}

// TestScanKernelMatchesGo pins the vector block scan (scanBlocks, which
// runs the kernel from four draws up) to missBlocks on every run length a
// scan draws, 0 to 334, at bounds 0, small (p = 1e-3) and near 2⁶². Each
// run is drawn with no draw below the bound and then with one forced below
// it at each index in turn, so the stopping draw lands in every lane of
// every block position, in the eight-draw loop and in the last block
// alike. The return value and every feed and tap word must agree. Feed and
// tap start at eight offsets each, and the draws carry random sign bits
// and cross the redraw offset's wrap, both of which the scan masks off.
func TestScanKernelMatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(607))
	const maxRun = lfgLen - lfgTap
	// buf holds feed and tap at independent offsets, like the register.
	buf := make([]int64, 2*maxRun+16)
	base := make([]int64, len(buf))
	work := make([]int64, len(buf))
	for _, top := range []uint64{0, redrawGap + threshold(1e-3), 1<<62 - 3} {
		// draw returns a sum x whose scan value (x+redrawGap)&int63 is v.
		draw := func(v uint64) int64 {
			return int64(v - redrawGap + rng.Uint64()&(1<<63))
		}
		miss := func() int64 { return draw(top + rng.Uint64()%(1<<63-top)) }
		for n := 0; n <= maxRun; n++ {
			fo, to := rng.Intn(8), maxRun+8+rng.Intn(8)
			for i := range base {
				base[i] = int64(rng.Uint64())
			}
			for i := 0; i < n; i++ {
				base[fo+i] = miss() - base[to+i]
			}
			feed, tap := buf[fo:fo+n], buf[to:to+n]
			for hit := -1; hit < n; hit++ {
				copy(buf, base)
				if hit >= 0 {
					if top == 0 {
						break // no value lies below 0
					}
					feed[hit] = draw(rng.Uint64()%top) - tap[hit]
				}
				copy(work, buf)
				want := missBlocks(work[fo:fo+n], work[to:to+n], top)
				got := scanBlocks(feed, tap, top)
				if got != want {
					t.Fatalf("top %d, run %d, hit at %d: kernel stopped at %d, Go at %d", top, n, hit, got, want)
				}
				if end := n & 3; hit >= 0 {
					// The hit stops the scan at the top of its block, or
					// of the tail below the blocks.
					if hit >= end {
						end += (hit-end)/4*4 + 4
					}
					if want != end {
						t.Fatalf("top %d, run %d, hit at %d: Go stopped at %d, not at the hit's block top %d", top, n, hit, want, end)
					}
				}
				for i := range buf {
					if buf[i] != work[i] {
						t.Fatalf("top %d, run %d, hit at %d: word %d = %#x on the kernel, %#x in Go", top, n, hit, i, buf[i], work[i])
					}
				}
			}
		}
	}
}

// TestSamplerPinsOnGoPath reruns the sampler's stream pins on the Go
// loops, the path of every CPU without AVX2.
func TestSamplerPinsOnGoPath(t *testing.T) {
	requireAVX2(t)
	setAVX2(t, false)
	t.Run("FastSourceMatchesMathRand", TestFastSourceMatchesMathRand)
	t.Run("ReplayerMatchesInjector", TestReplayerMatchesInjector)
	t.Run("SamplerMatchesFloat64Oracle", TestSamplerMatchesFloat64Oracle)
	t.Run("RedrawConsumesTwoDraws", TestRedrawConsumesTwoDraws)
	t.Run("ForcedFaultFires", TestForcedFaultFires)
}
