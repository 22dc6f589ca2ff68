//go:build amd64

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func microKernel4x8AVX2(nk int, pa *float64, off *int32, pb, c *float64, ldc int, finite bool)
//
// C[0:4, 0:8] += Aᵖ·Bᵖ on packed micro-panels, bitwise identical to
// microKernel4x8Go: pa holds the nk kept columns of the A micro-panel
// and off[q] the byte offset in pb of the B row kept column q meets
// (nk ≥ 1). Multiplies and adds stay separate (no FMA — its single
// rounding would diverge from the scalar kernels) and every C element
// accumulates its contributions in ascending k. The scalar kernel skips
// a packed A value equal to zero; two loops reproduce that skip.
//
// The masked loop replaces the product of a zero A value with -0.0.
// Adding -0.0 is an IEEE no-op on every operand (x + -0.0 ≡ x,
// including x = -0.0 and NaN), so the mask reproduces the skip exactly;
// a NaN in A compares unequal to zero (EQ_OQ) and propagates, as in the
// Go kernel.
//
// The plain loop adds every product unmasked. It runs only when finite
// is set (B holds no Inf or NaN, so a zero A value's product is ±0) and
// no accumulator enters as -0. In round-to-nearest x + y = -0 only when
// x = y = -0, so an accumulator that is not -0 never becomes -0, and
// adding ±0 to it returns it unchanged: the same bits as the skip.
//
// Register plan: Y0..Y7 the 4×8 C accumulators (row r in Y(2r) cols
// 0..3 and Y(2r+1) cols 4..7), Y8/Y9 the current B row, Y10 the
// broadcast A value, Y11 its ==0 mask (the masked loop) or a product
// (the plain loop), Y12 products, Y13 -0.0, Y14 +0; DX walks off and
// R12 holds the current B row's offset.
TEXT ·microKernel4x8AVX2(SB), NOSPLIT, $0-49
	MOVQ nk+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ off+16(FP), DX
	MOVQ pb+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R8
	SHLQ $3, R8               // row stride in bytes
	LEAQ (DI)(R8*1), R9       // &C[1,0]
	LEAQ (R9)(R8*1), R10      // &C[2,0]
	LEAQ (R10)(R8*1), R11     // &C[3,0]

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7

	VXORPD   Y14, Y14, Y14    // +0.0 in every lane
	VPCMPEQQ Y13, Y13, Y13
	VPSLLQ   $63, Y13, Y13    // -0.0 in every lane

	MOVBLZX finite+48(FP), AX
	TESTL   AX, AX
	JZ      kloop

	// Any accumulator lane bit-equal to -0.0 sends the tile to the
	// masked loop.
	VPCMPEQQ Y13, Y0, Y8
	VPCMPEQQ Y13, Y1, Y9
	VPOR     Y9, Y8, Y8
	VPCMPEQQ Y13, Y2, Y9
	VPOR     Y9, Y8, Y8
	VPCMPEQQ Y13, Y3, Y9
	VPOR     Y9, Y8, Y8
	VPCMPEQQ Y13, Y4, Y9
	VPOR     Y9, Y8, Y8
	VPCMPEQQ Y13, Y5, Y9
	VPOR     Y9, Y8, Y8
	VPCMPEQQ Y13, Y6, Y9
	VPOR     Y9, Y8, Y8
	VPCMPEQQ Y13, Y7, Y9
	VPOR     Y9, Y8, Y8
	VPTEST   Y8, Y8
	JNZ      kloop

plainloop:
	MOVL    (DX), R12         // byte offset of B row p
	VMOVUPD (BX)(R12*1), Y8   // B[p, 0:4]
	VMOVUPD 32(BX)(R12*1), Y9 // B[p, 4:8]

	VBROADCASTSD (SI), Y10    // A[0, p]
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1

	VBROADCASTSD 8(SI), Y10   // A[1, p]
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3

	VBROADCASTSD 16(SI), Y10  // A[2, p]
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5

	VBROADCASTSD 24(SI), Y10  // A[3, p]
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7

	ADDQ $32, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  plainloop
	JMP  store

kloop:
	MOVL    (DX), R12         // byte offset of B row p
	VMOVUPD (BX)(R12*1), Y8   // B[p, 0:4]
	VMOVUPD 32(BX)(R12*1), Y9 // B[p, 4:8]

	VBROADCASTSD (SI), Y10    // A[0, p]
	VCMPPD    $0, Y14, Y10, Y11
	VMULPD    Y8, Y10, Y12
	VBLENDVPD Y11, Y13, Y12, Y12
	VADDPD    Y12, Y0, Y0
	VMULPD    Y9, Y10, Y12
	VBLENDVPD Y11, Y13, Y12, Y12
	VADDPD    Y12, Y1, Y1

	VBROADCASTSD 8(SI), Y10   // A[1, p]
	VCMPPD    $0, Y14, Y10, Y11
	VMULPD    Y8, Y10, Y12
	VBLENDVPD Y11, Y13, Y12, Y12
	VADDPD    Y12, Y2, Y2
	VMULPD    Y9, Y10, Y12
	VBLENDVPD Y11, Y13, Y12, Y12
	VADDPD    Y12, Y3, Y3

	VBROADCASTSD 16(SI), Y10  // A[2, p]
	VCMPPD    $0, Y14, Y10, Y11
	VMULPD    Y8, Y10, Y12
	VBLENDVPD Y11, Y13, Y12, Y12
	VADDPD    Y12, Y4, Y4
	VMULPD    Y9, Y10, Y12
	VBLENDVPD Y11, Y13, Y12, Y12
	VADDPD    Y12, Y5, Y5

	VBROADCASTSD 24(SI), Y10  // A[3, p]
	VCMPPD    $0, Y14, Y10, Y11
	VMULPD    Y8, Y10, Y12
	VBLENDVPD Y11, Y13, Y12, Y12
	VADDPD    Y12, Y6, Y6
	VMULPD    Y9, Y10, Y12
	VBLENDVPD Y11, Y13, Y12, Y12
	VADDPD    Y12, Y7, Y7

	ADDQ $32, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  kloop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func allFiniteAVX2(x *float64, n int) bool
//
// Reports whether the n values at x (n a positive multiple of 8) hold
// no Inf or NaN: no value whose exponent field, masked out with VANDPD,
// equals the all-ones pattern. Y15 holds the exponent mask and Y14
// accumulates the per-lane equality results.
TEXT ·allFiniteAVX2(SB), NOSPLIT, $0-17
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ $0x7ff0000000000000, AX
	MOVQ AX, X15
	VPBROADCASTQ X15, Y15
	VPXOR Y14, Y14, Y14

floop:
	VANDPD   (SI), Y15, Y0
	VANDPD   32(SI), Y15, Y1
	VPCMPEQQ Y15, Y0, Y0
	VPCMPEQQ Y15, Y1, Y1
	VPOR     Y0, Y14, Y14
	VPOR     Y1, Y14, Y14
	ADDQ     $64, SI
	SUBQ     $8, CX
	JNZ      floop

	VPTEST Y14, Y14
	SETEQ  ret+16(FP)
	VZEROUPPER
	RET
