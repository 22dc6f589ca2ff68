//go:build amd64

#include "textflag.h"

// The kernels of the column-major panel LU (getrfCols): the rank-1
// update, the pivot search and the transposes in and out of the
// column-major copy. luUpdateAVX2 uses VMULPD and VSUBPD, never FMA, and
// takes the operands of each product in the order the compiled Go loop
// does (the U value first), so every element sees the loop's operations
// on the same operands. Constants come from DATA symbols, never through
// an SSE-encoded MOVQ into an X register: mixed with 256-bit VEX code
// that transition cost 17× per call on a 2-vCPU Xeon guest.

// luRows subtracts (u·L)&M from the column at DI+o for the multiplier
// vector L and its mask M; Y8 holds u.
#define LU_ROWS(o, L, M, X) \
	VMOVUPD o(DI), X; \
	VMULPD  L, Y8, Y13; \
	VANDPD  M, Y13, Y13; \
	VSUBPD  Y13, X, X; \
	VMOVUPD X, o(DI)

// luScale scales the vector at SI+o by inv (Y14) into L, stores it back
// and sets M to L ≠ 0, unordered (a NaN multiplier stays unmasked).
#define LU_SCALE(o, L, M) \
	VMOVUPD o(SI), L; \
	VMULPD  Y14, L, L; \
	VMOVUPD L, o(SI); \
	VCMPPD  $4, Y15, L, M

// func luUpdateAVX2(l *float64, nv int, inv float64, ncols, ld int)
//
// One step of the column-major panel LU. l points at the first row below
// the pivot of column j; the nv·4 values there (the rows below the pivot,
// rounded up into the column's spare rows) are scaled by inv in place
// into the multipliers L. Then for each of the ncols later columns t,
// with u its value in the pivot row (the word before its rows below the
// pivot, ld·8·(t−j) bytes after l), every row r gets
// x[r] −= (u·L[r]) AND (L[r] ≠ 0). A lane whose multiplier is ±0
// subtracts +0, which leaves every x — ±0, ±Inf, NaN — as the loop's skip
// does. Rows run in blocks of 16 whose multipliers and masks stay in
// Y0–Y7 across all columns, then single vectors.
//
// Registers: SI the block's multipliers, CX vectors left, DX ncols, R8
// the column stride in bytes, R10 l, R9 u's address and DI the target
// block in the current column, BX columns left; Y8 u, Y9–Y12 targets,
// Y13 products, Y14 inv, Y15 zero.
TEXT ·luUpdateAVX2(SB), NOSPLIT, $0-40
	MOVQ         l+0(FP), SI
	MOVQ         nv+8(FP), CX
	VBROADCASTSD inv+16(FP), Y14
	MOVQ         ncols+24(FP), DX
	MOVQ         ld+32(FP), R8
	SHLQ         $3, R8
	MOVQ         SI, R10
	VXORPD       Y15, Y15, Y15

block4:
	CMPQ     CX, $4
	JLT      block1
	LU_SCALE(0, Y0, Y4)
	LU_SCALE(32, Y1, Y5)
	LU_SCALE(64, Y2, Y6)
	LU_SCALE(96, Y3, Y7)
	LEAQ     -8(R10), R9
	MOVQ     SI, DI
	MOVQ     DX, BX
	TESTQ    BX, BX
	JZ       next4

col4:
	ADDQ         R8, R9
	ADDQ         R8, DI
	VBROADCASTSD (R9), Y8
	LU_ROWS(0, Y0, Y4, Y9)
	LU_ROWS(32, Y1, Y5, Y10)
	LU_ROWS(64, Y2, Y6, Y11)
	LU_ROWS(96, Y3, Y7, Y12)
	DECQ         BX
	JNZ          col4

next4:
	ADDQ $128, SI
	SUBQ $4, CX
	JMP  block4

block1:
	TESTQ    CX, CX
	JZ       done
	LU_SCALE(0, Y0, Y4)
	LEAQ     -8(R10), R9
	MOVQ     SI, DI
	MOVQ     DX, BX
	TESTQ    BX, BX
	JZ       next1

col1:
	ADDQ         R8, R9
	ADDQ         R8, DI
	VBROADCASTSD (R9), Y8
	LU_ROWS(0, Y0, Y4, Y9)
	DECQ         BX
	JNZ          col1

next1:
	ADDQ $32, SI
	DECQ CX
	JMP  block1

done:
	VZEROUPPER
	RET

DATA lanes0123<>+0(SB)/8, $0.0
DATA lanes0123<>+8(SB)/8, $1.0
DATA lanes0123<>+16(SB)/8, $2.0
DATA lanes0123<>+24(SB)/8, $3.0
GLOBL lanes0123<>(SB), RODATA|NOPTR, $32

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

DATA minusone<>+0(SB)/8, $-1.0
GLOBL minusone<>(SB), RODATA|NOPTR, $8

DATA four<>+0(SB)/8, $4.0
GLOBL four<>(SB), RODATA|NOPTR, $8

// func absMaxAVX2(x *float64, nv int, lanes *[8]float64)
//
// The pivot search's vector half over the nv·4 values at x (nv ≥ 1):
// lane l keeps the largest |x[r]| over its rows r ≡ l (mod 4) and the
// first r that holds it, replacing them only on a strict, ordered
// greater-than, so a NaN never wins. lanes[l] is −1 and lanes[4+l] is
// −1 for a lane that saw only NaNs; otherwise lanes[4+l] is the row as
// a float64.
//
// Registers: Y0 the lane maxima, Y1 their rows, Y2 the current rows, Y3
// four, Y4 |x|, Y5 the greater-than mask, Y15 the magnitude mask.
TEXT ·absMaxAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         nv+8(FP), CX
	MOVQ         lanes+16(FP), DI
	VBROADCASTSD absmask<>(SB), Y15
	VBROADCASTSD minusone<>(SB), Y0
	VMOVAPD      Y0, Y1
	VMOVUPD      lanes0123<>(SB), Y2
	VBROADCASTSD four<>(SB), Y3

amax:
	VANDPD    (SI), Y15, Y4
	VCMPPD    $0x1e, Y0, Y4, Y5 // |x| > max, ordered
	VBLENDVPD Y5, Y4, Y0, Y0
	VBLENDVPD Y5, Y2, Y1, Y1
	VADDPD    Y3, Y2, Y2
	ADDQ      $32, SI
	DECQ      CX
	JNZ       amax

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func transposeAVX2(src *float64, lds int, dst *float64, ldd, rows, cols int)
//
// dst[j·ldd + i] = src[i·lds + j] for i < rows and j < cols, both
// positive multiples of 4, in 4×4 blocks: four rows of a block are
// loaded, transposed with VUNPCKLPD/VUNPCKHPD and VPERM2F128, and stored
// as four rows of dst. Only moves: every value keeps its bits.
//
// Registers: SI the block row of src, DI the block column of dst, R8 and
// R9 the strides in bytes, R10/R11 src rows 1 and 3 of the block, R12/R13
// dst rows 1 and 3, CX block rows left, DX block columns left, BX and AX
// the block's src and dst.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-48
	MOVQ src+0(FP), SI
	MOVQ lds+8(FP), R8
	SHLQ $3, R8
	MOVQ dst+16(FP), DI
	MOVQ ldd+24(FP), R9
	SHLQ $3, R9
	MOVQ rows+32(FP), CX
	SHRQ $2, CX

tblockrow:
	MOVQ cols+40(FP), DX
	SHRQ $2, DX
	MOVQ SI, BX
	MOVQ DI, AX

tblock:
	LEAQ       (BX)(R8*1), R10
	LEAQ       (R10)(R8*2), R11
	VMOVUPD    (BX), Y0
	VMOVUPD    (R10), Y1
	VMOVUPD    (BX)(R8*2), Y2
	VMOVUPD    (R11), Y3
	VUNPCKLPD  Y1, Y0, Y4 // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD  Y1, Y0, Y5 // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0 // column 0
	VPERM2F128 $0x20, Y7, Y5, Y1 // column 1
	VPERM2F128 $0x31, Y6, Y4, Y2 // column 2
	VPERM2F128 $0x31, Y7, Y5, Y3 // column 3
	LEAQ       (AX)(R9*1), R12
	LEAQ       (R12)(R9*2), R13
	VMOVUPD    Y0, (AX)
	VMOVUPD    Y1, (R12)
	VMOVUPD    Y2, (AX)(R9*2)
	VMOVUPD    Y3, (R13)
	ADDQ       $32, BX
	LEAQ       (AX)(R9*4), AX
	DECQ       DX
	JNZ        tblock

	LEAQ (SI)(R8*4), SI
	ADDQ $32, DI
	DECQ CX
	JNZ  tblockrow
	VZEROUPPER
	RET
