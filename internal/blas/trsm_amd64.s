//go:build amd64

#include "textflag.h"

// trsmAVX2 uses VMULPD and VSUBPD, never FMA, and takes the operands of
// each product in the order the compiled Go loop does (the B value
// first), so every element sees the loop's operations on the same
// operands.

// tailmask<>+8k is the lane mask of a register holding 4−k of a row's
// values: the first 4−k lanes set.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// Row operations of trsmAVX2 on register r at byte offset o of a row:
// F is a full register, M the last one, masked by Y15 to the row's tail.
#define TR_LDF(o, r) VMOVUPD o(DI), r
#define TR_LDM(o, r) VMASKMOVPD o(DI), Y15, r
#define TR_UPF(o, r) VMOVUPD o(BX), Y9; VMULPD Y8, Y9, Y9; VSUBPD Y9, r, r
#define TR_UPM(o, r) VMASKMOVPD o(BX), Y15, Y9; VMULPD Y8, Y9, Y9; VSUBPD Y9, r, r
#define TR_SC(r) VMULPD Y10, r, r
#define TR_STF(o, r) VMOVUPD r, o(DI)
#define TR_STM(o, r) VMASKMOVPD r, Y15, o(DI)

// The full registers before the last one: Y0 … Y(k−1).
#define TR_LD1 TR_LDF(0, Y0)
#define TR_LD2 TR_LD1; TR_LDF(32, Y1)
#define TR_LD3 TR_LD2; TR_LDF(64, Y2)
#define TR_LD4 TR_LD3; TR_LDF(96, Y3)
#define TR_LD5 TR_LD4; TR_LDF(128, Y4)
#define TR_LD6 TR_LD5; TR_LDF(160, Y5)
#define TR_LD7 TR_LD6; TR_LDF(192, Y6)
#define TR_UP1 TR_UPF(0, Y0)
#define TR_UP2 TR_UP1; TR_UPF(32, Y1)
#define TR_UP3 TR_UP2; TR_UPF(64, Y2)
#define TR_UP4 TR_UP3; TR_UPF(96, Y3)
#define TR_UP5 TR_UP4; TR_UPF(128, Y4)
#define TR_UP6 TR_UP5; TR_UPF(160, Y5)
#define TR_UP7 TR_UP6; TR_UPF(192, Y6)
#define TR_ST1 TR_STF(0, Y0)
#define TR_ST2 TR_ST1; TR_STF(32, Y1)
#define TR_ST3 TR_ST2; TR_STF(64, Y2)
#define TR_ST4 TR_ST3; TR_STF(96, Y3)
#define TR_ST5 TR_ST4; TR_STF(128, Y4)
#define TR_ST6 TR_ST5; TR_STF(160, Y5)
#define TR_ST7 TR_ST6; TR_STF(192, Y6)

// All registers Y0 … Y(k−1), scaled by 1/T[i,i] (Y10).
#define TR_SC1 TR_SC(Y0)
#define TR_SC2 TR_SC1; TR_SC(Y1)
#define TR_SC3 TR_SC2; TR_SC(Y2)
#define TR_SC4 TR_SC3; TR_SC(Y3)
#define TR_SC5 TR_SC4; TR_SC(Y4)
#define TR_SC6 TR_SC5; TR_SC(Y5)
#define TR_SC7 TR_SC6; TR_SC(Y6)
#define TR_SC8 TR_SC7; TR_SC(Y7)

// TR_P walks the solved rows of the current row: CX of them, T[i,p] at
// SI and row p of B at BX. A T[i,p] whose bits without the sign are zero
// is skipped by a branch, as the Go loop skips it; any other value —
// NaN included — is broadcast into Y8 and the row update UPD runs.
#define TR_P(top, skip, UPD) \
top: \
	MOVQ         (SI), AX; \
	SHLQ         $1, AX; \
	JZ           skip; \
	VBROADCASTSD (SI), Y8; \
	UPD; \
skip: \
	ADDQ $8, SI; \
	ADDQ R9, BX; \
	DECQ CX; \
	JNZ  top

// TR_DIAG puts 1/T[i,i] in every lane of Y10, i = s for the lower
// triangle and m−1−s for the upper.
#define TR_DIAG \
	MOVQ         R10, AX; \
	SUBQ         R13, AX; \
	DECQ         AX; \
	CMPB         lower+48(FP), $0; \
	CMOVQNE      R13, AX; \
	LEAQ         8(R8), CX; \
	IMULQ        AX, CX; \
	VMOVSD       one<>(SB), X10; \
	VDIVSD       (R11)(CX*1), X10, X10; \
	VBROADCASTSD X10, Y10

// TR_ROW is step s for a row of k registers: LOAD it, walk its solved
// rows with UPD, scale it with SCALE unless unit, STORE it, and go to the
// next step. The four labels are the row's own.
#define TR_ROW(LOAD, UPD, SCALE, STORE, top, skip, diag, store) \
	LOAD; \
	TESTQ CX, CX; \
	JZ    diag; \
	TR_P(top, skip, UPD); \
diag: \
	CMPB unit+49(FP), $0; \
	JNE  store; \
	TR_DIAG; \
	SCALE; \
store: \
	STORE; \
	INCQ R13; \
	JMP  step

// func trsmAVX2(m, n int, t *float64, ldt int, b *float64, ldb int, lower, unit bool)
//
// Dtrsm's substitution on an m×n slab of B, 1 ≤ n ≤ 32, with α already
// applied. Step s solves row i = s (lower) or i = m−1−s (upper): the
// row's k = ⌈n/4⌉ registers Y0 … Y(k−1) are loaded once, the last
// through the tail mask Y15; each solved row p (p < i ascending for the
// lower triangle, p > i ascending for the upper) subtracts T[i,p]·B[p]
// unless T[i,p] is ±0; unless unit, the row is multiplied by 1/T[i,i];
// and it is stored once. One row loop per k, entered from a dispatch on
// k at every step.
//
// Registers: R10 m, R11 t, R12 b, R8 and R9 the row strides of T and B
// in bytes, R13 s, DX k; per step DI the row of B, SI T[i,p], BX row p
// of B and CX the rows left; Y8 T[i,p], Y9 products, Y10 1/T[i,i],
// Y15 the tail mask.
TEXT ·trsmAVX2(SB), NOSPLIT, $0-50
	MOVQ m+0(FP), R10
	MOVQ n+8(FP), AX
	MOVQ t+16(FP), R11
	MOVQ ldt+24(FP), R8
	SHLQ $3, R8
	MOVQ b+32(FP), R12
	MOVQ ldb+40(FP), R9
	SHLQ $3, R9

	LEAQ    3(AX), DX
	SHRQ    $2, DX       // k = ⌈n/4⌉
	MOVQ    DX, CX
	SHLQ    $2, CX
	SUBQ    AX, CX       // 4k − n: the last register's missing lanes
	LEAQ    tailmask<>(SB), AX
	VMOVUPD (AX)(CX*8), Y15
	XORL    R13, R13

step:
	CMPQ R13, R10
	JGE  done
	MOVQ R13, AX         // i = s
	XORL CX, CX          // first solved row 0
	CMPB lower+48(FP), $0
	JNE  rows
	MOVQ R10, CX
	SUBQ R13, CX         // first solved row m−s
	LEAQ -1(CX), AX      // i = m−1−s

rows:
	MOVQ  AX, DI
	IMULQ R9, DI
	ADDQ  R12, DI        // B[i]
	MOVQ  AX, SI
	IMULQ R8, SI
	ADDQ  R11, SI
	LEAQ  (SI)(CX*8), SI // T[i, first]
	MOVQ  CX, BX
	IMULQ R9, BX
	ADDQ  R12, BX        // B[first]
	MOVQ  R13, CX        // s solved rows

	CMPQ DX, $4
	JLE  k1to4
	CMPQ DX, $6
	JLE  k5to6
	CMPQ DX, $7
	JEQ  k7
	JMP  k8

k5to6:
	CMPQ DX, $5
	JEQ  k5
	JMP  k6

k1to4:
	CMPQ DX, $2
	JLE  k1to2
	CMPQ DX, $3
	JEQ  k3
	JMP  k4

k1to2:
	CMPQ DX, $1
	JEQ  k1
	JMP  k2

k1:
	TR_ROW(TR_LDM(0, Y0), TR_UPM(0, Y0), TR_SC1, TR_STM(0, Y0), k1p, k1s, k1d, k1w)

k2:
	TR_ROW(TR_LD1; TR_LDM(32, Y1), TR_UP1; TR_UPM(32, Y1), TR_SC2, TR_ST1; TR_STM(32, Y1), k2p, k2s, k2d, k2w)

k3:
	TR_ROW(TR_LD2; TR_LDM(64, Y2), TR_UP2; TR_UPM(64, Y2), TR_SC3, TR_ST2; TR_STM(64, Y2), k3p, k3s, k3d, k3w)

k4:
	TR_ROW(TR_LD3; TR_LDM(96, Y3), TR_UP3; TR_UPM(96, Y3), TR_SC4, TR_ST3; TR_STM(96, Y3), k4p, k4s, k4d, k4w)

k5:
	TR_ROW(TR_LD4; TR_LDM(128, Y4), TR_UP4; TR_UPM(128, Y4), TR_SC5, TR_ST4; TR_STM(128, Y4), k5p, k5s, k5d, k5w)

k6:
	TR_ROW(TR_LD5; TR_LDM(160, Y5), TR_UP5; TR_UPM(160, Y5), TR_SC6, TR_ST5; TR_STM(160, Y5), k6p, k6s, k6d, k6w)

k7:
	TR_ROW(TR_LD6; TR_LDM(192, Y6), TR_UP6; TR_UPM(192, Y6), TR_SC7, TR_ST6; TR_STM(192, Y6), k7p, k7s, k7d, k7w)

k8:
	TR_ROW(TR_LD7; TR_LDM(224, Y7), TR_UP7; TR_UPM(224, Y7), TR_SC8, TR_ST7; TR_STM(224, Y7), k8p, k8s, k8d, k8w)

done:
	VZEROUPPER
	RET
