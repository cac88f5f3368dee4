package noise

import (
	"math/rand"
	"sync"
)

// This file is a re-seedable rand.Source64 that produces exactly the stream
// of math/rand's NewSource, but seeds in a fraction of the time. Replayer
// re-seeds once per Monte-Carlo trial, and math/rand's Seed is a serial
// chain of 1,841 Lehmer steps x ← 48271·x mod (2³¹−1), each waiting on the
// last. The k-th value of that chain is 48271^k·x₀ mod (2³¹−1), so with the
// powers precomputed the 1,841 products are independent of one another.
// Each product reduces modulo 2³¹−1 by two folds and a mask, with no
// compare and no branch: the folds are exact because no product is a
// multiple of the prime modulus (x₀·48271^k ≢ 0; see fill).
//
// math/rand is an additive lagged-Fibonacci generator over a 607-word
// register: Seed fills word i with three consecutive chain values XORed
// with a fixed scramble word ("cooked" in the standard library), and each
// output adds the register word 273 places behind into the current one.
// The scramble words are recovered from NewSource(1)'s first 607 outputs by
// running that recurrence backwards, so the stream is derived from the
// public API alone and stays the standard library's by construction
// (TestFastSourceMatchesMathRand). Both tables are built on the first Seed,
// not at package init: a run that draws no noise never pays for them.
//
// On amd64 CPUs with AVX2 the register words are computed four at a time
// by an assembly kernel (simd_amd64.s), in about a quarter of the Go
// loop's time (Replayer.Reseed); fillFrom below is the path on every other
// CPU and the reference the kernel is tested against.

const (
	lfgLen   = 607             // register length
	lfgTap   = 273             // lag of the feedback tap
	lehmerA  = 48271           // seeding multiplier
	lehmerM  = 1<<31 - 1       // seeding modulus
	lfgSteps = 20 + 3*lfgLen   // Lehmer steps per seed
	int63    = 1<<63 - 1       // Int63 mask
	zeroSeed = int64(89482311) // math/rand's substitute for a zero seed
)

var (
	// lehmerPow[j][i] = 48271^(21+3i+j) mod (2³¹−1): the powers behind the
	// three chain values Seed folds into register word i, one column per
	// chain value so that consecutive words' powers are adjacent.
	lehmerPow [3][lfgLen]uint64
	// cooked[i] is the scramble word Seed XORs into register word i.
	cooked [lfgLen]uint64
	// tables builds lehmerPow and cooked once, on the first Seed.
	tables sync.Once
	// useAVX2 reports whether fill and the sampler's scan run the AVX2
	// kernels. It is set once, from the CPU, before any source exists;
	// tests switch it off to run the Go loops.
	useAVX2 = detectAVX2()
)

// buildTables fills lehmerPow and cooked.
func buildTables() {
	p := uint64(1)
	for k := 1; k <= lfgSteps; k++ {
		p = p * lehmerA % lehmerM
		if j := k - 21; j >= 0 {
			lehmerPow[j%3][j/3] = p
		}
	}
	// Recover NewSource(1)'s initial register v from its outputs. Output k
	// (1-based) writes word f = (334−k) mod 607 with v[f] + r[f+273], where
	// r[f+273] is still the initial value when k ≤ 273 and otherwise the
	// output written 273 steps earlier.
	ref := rand.NewSource(1).(rand.Source64)
	var out [lfgLen + 1]uint64
	for k := 1; k <= lfgLen; k++ {
		out[k] = ref.Uint64()
	}
	feed := func(k int) int { return ((lfgLen-lfgTap-k)%lfgLen + lfgLen) % lfgLen }
	var v [lfgLen]uint64
	for k := lfgTap + 1; k <= lfgLen; k++ {
		v[feed(k)] = out[k] - out[k-lfgTap]
	}
	for k := 1; k <= lfgTap; k++ {
		v[feed(k)] = out[k] - v[(feed(k)+lfgTap)%lfgLen]
	}
	var src fastSource
	src.fill(1, &[lfgLen]uint64{})
	for i := range cooked {
		cooked[i] = v[i] ^ uint64(src.vec[i])
	}
}

// fastSource is math/rand's generator with a jump-ahead Seed. The zero
// value must be seeded before use.
type fastSource struct {
	tap, feed int
	vec       [lfgLen]int64
}

var _ rand.Source64 = (*fastSource)(nil)

// fill seeds the register from chain start x0 ∈ [1, 2³¹−1), XORing word i
// with scramble[i]. The three chain values of a word are
// 48271^k·x0 mod (2³¹−1) for consecutive k: products y = P·x0 < 2⁶² of two
// factors below 2³¹, independent of each other and of every other word's.
//
// Each product is reduced modulo M = 2³¹−1 by two folds, with no compare:
// 2³¹ ≡ 1 (mod M), so r = y&M + y>>31 ≡ y lies in [0, 2M], and r + r>>31
// masked with M subtracts M exactly when r ≥ 2³¹. That is the reduction
// whenever r is neither M nor 2M, which holds because x0·P ≢ 0 (mod M): M
// is prime and neither x0 nor P is a multiple of it. Then r ≥ 2³¹ exactly
// when r > M. The first chain value enters the word only through <<40,
// which keeps its low 24 bits, so it needs no mask: the 2³¹ the mask would
// clear lies above them.
func (s *fastSource) fill(x0 uint64, scramble *[lfgLen]uint64) {
	s.tap = 0
	s.feed = lfgLen - lfgTap
	fillVec(&s.vec, x0, scramble)
}

// fillFrom computes register words from to lfgLen−1 of fill, one word at a
// time.
func fillFrom(vec *[lfgLen]int64, x0 uint64, scramble *[lfgLen]uint64, from int) {
	p0, p1, p2 := &lehmerPow[0], &lehmerPow[1], &lehmerPow[2]
	for i := from; i < lfgLen; i++ {
		a, b, c := p0[i]*x0, p1[i]*x0, p2[i]*x0
		a = a&lehmerM + a>>31
		b = b&lehmerM + b>>31
		c = c&lehmerM + c>>31
		a += a >> 31
		b = (b + b>>31) & lehmerM
		c = (c + c>>31) & lehmerM
		vec[i] = int64(a<<40 ^ b<<20 ^ c ^ scramble[i])
	}
}

// Seed rewinds the source onto the stream rand.NewSource(seed) starts.
func (s *fastSource) Seed(seed int64) {
	tables.Do(buildTables)
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.fill(uint64(seed), &cooked)
}

// Uint64 returns the next 64-bit output.
func (s *fastSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfgLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfgLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next output with the sign bit cleared.
func (s *fastSource) Int63() int64 { return int64(s.Uint64() & int63) }
