package noise

import (
	"math"
	"math/rand"
	"testing"
)

// TestFastSourceMatchesMathRand pins fastSource to the standard library:
// for every seed, rand.New over a fastSource (re-seeded in place, the way
// Replayer.Reset uses it) draws exactly what rand.New(rand.NewSource(seed))
// draws, on each of the three calls the noise channels make. The seeds
// cover the Seed edge cases — zero (math/rand's substitute value), ±1, the
// modulus 2³¹−1 and its neighbours, the substitute value itself, large
// magnitudes of both signs — plus a random sample.
func TestFastSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1, 2 * lehmerM,
		1 << 31, -(1 << 31), zeroSeed, -zeroSeed, 1 << 62, -(1 << 62),
		math.MaxInt64, math.MinInt64,
	}
	pick := rand.New(rand.NewSource(20261017))
	for len(seeds) < 2013 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	const draws = 3000
	src := new(fastSource)
	for _, seed := range seeds {
		src.Seed(seed)
		got := rand.New(src)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, i, g, w)
			}
		}
		for i := 0; i < draws; i++ {
			if g, w := got.Intn(3), want.Intn(3); g != w {
				t.Fatalf("seed %d: Intn(3) draw %d = %d, math/rand %d", seed, i, g, w)
			}
		}
		for i := 0; i < draws; i++ {
			if g, w := got.Intn(15), want.Intn(15); g != w {
				t.Fatalf("seed %d: Intn(15) draw %d = %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// BenchmarkReseed compares one re-seed of the replayer's source, on each
// sampler path, against math/rand's.
func BenchmarkReseed(b *testing.B) {
	for _, path := range samplerPaths() {
		b.Run(path.name, func(b *testing.B) {
			setAVX2(b, path.avx2)
			src := new(fastSource)
			for i := 0; i < b.N; i++ {
				src.Seed(int64(i))
			}
		})
	}
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}

// BenchmarkScan times Next alone, on each sampler path, over a 2,925-site
// stream, the length of the d=5 threshold cell's noisy cycles, at p=5e-4:
// ns/draw divides by the sites scanned, one draw each. The source runs on
// without a re-seed, and a hit draws no Pauli, so only the scan is timed.
func BenchmarkScan(b *testing.B) {
	chans := make([]Channel, 2925)
	for i := range chans {
		chans[i] = Channel(i % int(numChannels))
	}
	for _, path := range samplerPaths() {
		b.Run(path.name, func(b *testing.B) {
			setAVX2(b, path.avx2)
			rep := NewReplayer(Uniform(5e-4), 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < len(chans); k++ {
					k = rep.Next(chans, k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(chans)), "ns/draw")
		})
	}
}
