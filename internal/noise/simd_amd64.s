#include "textflag.h"

// The AVX2 kernels of the fault sampler (simd_amd64.go). Both use VEX
// encodings only and end in VZEROUPPER: a legacy-SSE instruction between
// them and the Go code around them would cost a state transition on every
// call. Broadcast constants are read from memory by VPBROADCASTQ.

DATA lehmerMask<>+0(SB)/8, $0x7fffffff
GLOBL lehmerMask<>(SB), RODATA|NOPTR, $8

DATA redrawGap<>+0(SB)/8, $512
GLOBL redrawGap<>(SB), RODATA|NOPTR, $8

DATA int63Mask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL int63Mask<>(SB), RODATA|NOPTR, $8

// Byte offsets into fillAVX2's power table: one column of 607 words, and
// the 604 words (151 blocks of four) the kernel computes.
#define POW_COL 4856
#define FILL_BYTES 4832

// func cpuid(eax, ecx uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eax+0(FP), AX
	MOVL ecx+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fillAVX2(vec *[lfgLen]int64, x0 uint64, scramble *[lfgLen]uint64, pow *[3][lfgLen]uint64)
//
// Word i of vec is fillFrom's word i, for i < 604, four words per
// iteration: Y2, Y3 and Y4 hold the three chain values a, b and c of the
// four words, each the 64-bit product of two factors below 2³¹.
TEXT ·fillAVX2(SB), NOSPLIT, $0-32
	MOVQ vec+0(FP), DI
	MOVQ scramble+16(FP), SI
	MOVQ pow+24(FP), DX
	VPBROADCASTQ x0+8(FP), Y0
	VPBROADCASTQ lehmerMask<>(SB), Y1
	XORQ CX, CX

fillLoop:
	VPMULUDQ (DX)(CX*1), Y0, Y2
	VPMULUDQ POW_COL(DX)(CX*1), Y0, Y3
	VPMULUDQ (2*POW_COL)(DX)(CX*1), Y0, Y4

	// First fold: y&M + y>>31.
	VPSRLQ $31, Y2, Y5
	VPAND  Y1, Y2, Y2
	VPADDQ Y5, Y2, Y2
	VPSRLQ $31, Y3, Y6
	VPAND  Y1, Y3, Y3
	VPADDQ Y6, Y3, Y3
	VPSRLQ $31, Y4, Y7
	VPAND  Y1, Y4, Y4
	VPADDQ Y7, Y4, Y4

	// Second fold: r + r>>31, masked for b and c only.
	VPSRLQ $31, Y2, Y5
	VPADDQ Y5, Y2, Y2
	VPSRLQ $31, Y3, Y6
	VPADDQ Y6, Y3, Y3
	VPAND  Y1, Y3, Y3
	VPSRLQ $31, Y4, Y7
	VPADDQ Y7, Y4, Y4
	VPAND  Y1, Y4, Y4

	// a<<40 ^ b<<20 ^ c ^ scramble.
	VPSLLQ  $40, Y2, Y2
	VPSLLQ  $20, Y3, Y3
	VPXOR   Y3, Y2, Y2
	VPXOR   Y4, Y2, Y2
	VPXOR   (SI)(CX*1), Y2, Y2
	VMOVDQU Y2, (DI)(CX*1)

	ADDQ $32, CX
	CMPQ CX, $FILL_BYTES
	JLT  fillLoop
	VZEROUPPER
	RET

// func missBlocksAVX2(feed, tap []int64, top uint64) int
//
// CX is missBlocks' j. Each block's draws x = feed+tap are offset by
// redrawGap and masked to 63 bits into v; VPCMPGTQ sets a lane where
// top > v, which is a miss-or-not compare only because both are below
// 2⁶³. Eight draws per iteration: the block above (Y3, lanes j−4..j−1)
// and the block below it (Y4, j−8..j−5). No draw reads a word another
// draw of the eight writes, so both load before either stores.
TEXT ·missBlocksAVX2(SB), NOSPLIT, $0-64
	MOVQ feed_base+0(FP), SI
	MOVQ feed_len+8(FP), CX
	MOVQ tap_base+24(FP), DI
	VPBROADCASTQ top+48(FP), Y0
	VPBROADCASTQ redrawGap<>(SB), Y1
	VPBROADCASTQ int63Mask<>(SB), Y2
	CMPQ CX, $8
	JLT  scanTail

scanLoop:
	VMOVDQU  -32(SI)(CX*8), Y3
	VPADDQ   -32(DI)(CX*8), Y3, Y3
	VMOVDQU  -64(SI)(CX*8), Y4
	VPADDQ   -64(DI)(CX*8), Y4, Y4
	VPADDQ   Y1, Y3, Y5
	VPAND    Y2, Y5, Y5
	VPCMPGTQ Y5, Y0, Y5
	VPADDQ   Y1, Y4, Y6
	VPAND    Y2, Y6, Y6
	VPCMPGTQ Y6, Y0, Y6
	VPOR     Y5, Y6, Y7
	VPTEST   Y7, Y7
	JNZ      scanHit
	VMOVDQU  Y3, -32(SI)(CX*8)
	VMOVDQU  Y4, -64(SI)(CX*8)
	SUBQ     $8, CX
	CMPQ     CX, $8
	JGE      scanLoop

scanTail:
	// Fewer than eight draws left: one more block of four, if there is one.
	CMPQ     CX, $4
	JLT      scanDone
	VMOVDQU  -32(SI)(CX*8), Y3
	VPADDQ   -32(DI)(CX*8), Y3, Y3
	VPADDQ   Y1, Y3, Y5
	VPAND    Y2, Y5, Y5
	VPCMPGTQ Y5, Y0, Y5
	VPTEST   Y5, Y5
	JNZ      scanDone
	VMOVDQU  Y3, -32(SI)(CX*8)
	SUBQ     $4, CX
	JMP      scanDone

scanHit:
	// A draw of the eight is below top: store the block above when it
	// holds none of them and stop at the block that does.
	VPTEST  Y5, Y5
	JNZ     scanDone
	VMOVDQU Y3, -32(SI)(CX*8)
	SUBQ    $4, CX

scanDone:
	MOVQ CX, ret+56(FP)
	VZEROUPPER
	RET
