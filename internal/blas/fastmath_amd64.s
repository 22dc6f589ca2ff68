//go:build amd64

#include "textflag.h"

// func microKernel4x8FMA(nk int, pa *float64, off *int32, pb, c *float64, ldc int)
//
// FastMath full-tile kernel: C[0:4, 0:8] += Aᵖ·Bᵖ on packed
// micro-panels using fused multiply-add, over the same nk ≥ 1 kept
// columns and B-row offsets as microKernel4x8AVX2. Unlike that kernel
// there is no exact-zero mask and each contribution is rounded once
// (FMA) instead of twice (mul then add), so the result is NOT bitwise
// identical to the scalar kernels — FastMath callers accept any
// error-bounded result. Same register plan as the bitwise kernel:
// Y0..Y7 the 4×8 C accumulators (row r in Y(2r) cols 0..3 and Y(2r+1)
// cols 4..7), Y8/Y9 the current B row, Y10 the broadcast A value.
TEXT ·microKernel4x8FMA(SB), NOSPLIT, $0-48
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

loop:
	MOVL    (DX), R12         // byte offset of B row p
	VMOVUPD (BX)(R12*1), Y8   // B[p, 0:4]
	VMOVUPD 32(BX)(R12*1), Y9 // B[p, 4:8]

	VBROADCASTSD (SI), Y10    // A[0, p]
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1

	VBROADCASTSD 8(SI), Y10   // A[1, p]
	VFMADD231PD Y8, Y10, Y2
	VFMADD231PD Y9, Y10, Y3

	VBROADCASTSD 16(SI), Y10  // A[2, p]
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5

	VBROADCASTSD 24(SI), Y10  // A[3, p]
	VFMADD231PD Y8, Y10, Y6
	VFMADD231PD Y9, Y10, Y7

	ADDQ $32, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  loop

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
