//go:build !amd64

package noise

// detectAVX2 reports false: only amd64 has the vector kernels
// (simd_amd64.go).
func detectAVX2() bool { return false }

// fillVec computes the register words of fastSource.fill.
func fillVec(vec *[lfgLen]int64, x0 uint64, scramble *[lfgLen]uint64) {
	fillFrom(vec, x0, scramble, 0)
}

// scanBlocks is missBlocks.
func scanBlocks(feed, tap []int64, top uint64) int { return missBlocks(feed, tap, top) }
