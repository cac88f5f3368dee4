package noise

// This file runs the fault sampler's two hot loops on the AVX2 kernels of
// simd_amd64.s where the CPU and the operating system support AVX2
// (useAVX2), and on the Go loops (fillFrom, missBlocks) everywhere else.
// Both paths draw the same words; TestFillKernelMatchesGo and
// TestScanKernelMatchesGo compare them.

// detectAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers: CPUID.1:ECX has OSXSAVE (bit 27) and AVX
// (bit 28), XCR0 enables the SSE and AVX state (bits 1 and 2), and
// CPUID.(7,0):EBX has AVX2 (bit 5).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// fillVec computes the register words of fastSource.fill: four at a time
// in fillAVX2, then the last lfgLen mod 4 in Go.
func fillVec(vec *[lfgLen]int64, x0 uint64, scramble *[lfgLen]uint64) {
	if !useAVX2 {
		fillFrom(vec, x0, scramble, 0)
		return
	}
	fillAVX2(vec, x0, scramble, &lehmerPow)
	fillFrom(vec, x0, scramble, lfgLen&^3)
}

// scanBlocks is missBlocks, on missBlocksAVX2 when it applies. The kernel
// compares signed, so a bound at or above 2⁶³ (a channel at p = 1) takes
// the Go loop, as does a run shorter than one block.
func scanBlocks(feed, tap []int64, top uint64) int {
	if useAVX2 && len(feed) >= 4 && top < 1<<63 {
		return missBlocksAVX2(feed, tap, top)
	}
	return missBlocks(feed, tap, top)
}

// cpuid returns the registers CPUID leaves for leaf eax, subleaf ecx.
func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// xgetbv returns XCR0, the OS-enabled state components.
func xgetbv() (eax, edx uint32)

// fillAVX2 computes register words 0 to lfgLen&^3 − 1 of fill, four per
// iteration: VPMULUDQ of x0 with each power column, the two folds and the
// mask, the shifts and the XORs of fillFrom, lane by lane.
//
//go:noescape
func fillAVX2(vec *[lfgLen]int64, x0 uint64, scramble *[lfgLen]uint64, pow *[3][lfgLen]uint64)

// missBlocksAVX2 is missBlocks for len(feed) = len(tap) and top < 2⁶³:
// it draws eight draws per iteration while eight remain, then one block
// of four, and stores a block only when none of its draws is below top.
//
//go:noescape
func missBlocksAVX2(feed, tap []int64, top uint64) int
