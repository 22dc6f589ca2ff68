//go:build amd64

package blas

import "math"

// useAVX2 gates the assembly kernels. Detection runs once at init; the
// fallback is each kernel's portable Go twin.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU supports AVX2 and the OS has
// enabled the YMM register state (OSXSAVE + XCR0 bits 1:2).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, cx, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if cx&osxsaveBit == 0 || cx&avxBit == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, bx, _, _ := cpuid(7, 0)
	return bx&(1<<5) != 0
}

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func microKernel4x8AVX2(nk int, pa *float64, off *int32, pb, c *float64, ldc int) bool

// microKernel4x8 dispatches the full-tile kernel; finite reports that
// pb holds no Inf or NaN. The assembly version uses separate
// VMULPD/VADDPD (never FMA, whose single rounding would diverge from
// the scalar kernels) and adds the product of a zero A value instead of
// skipping it. That is bitwise identical to microKernel4x8Go only while
// every such product is a ±0 and no accumulator is −0, so the assembly
// runs only under finite and declines a tile with a −0 in C; the Go
// kernel runs every tile it does not take.
func microKernel4x8(nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int, finite bool) {
	if useAVX2 && finite && nk > 0 && microKernel4x8AVX2(nk, &pa[0], &off[0], &pb[0], &c[0], ldc) {
		return
	}
	microKernel4x8Go(nk, pa, off, pb, c, ldc)
}

//go:noescape
func allFiniteAVX2(x *float64, n int) bool

// finitePanel reports that the packed B panel pb holds no Inf or NaN,
// which lets the AVX2 kernel run on its tiles. The scan runs only
// where that kernel does, eight values per iteration; a packed panel's
// length is always a positive multiple of eight.
func finitePanel(pb []float64) bool {
	return useAVX2 && len(pb) > 0 && len(pb)%8 == 0 && allFiniteAVX2(&pb[0], len(pb))
}

// AllFinite reports whether x holds no Inf or NaN. The AVX2 exponent
// scan takes the longest prefix whose length is a multiple of eight and
// allFiniteGo the rest, or all of x on a CPU without AVX2.
func AllFinite(x []float64) bool {
	n := 0
	if useAVX2 {
		n = len(x) &^ 7
		if n > 0 && !allFiniteAVX2(&x[0], n) {
			return false
		}
	}
	return allFiniteGo(x[n:])
}

//go:noescape
func luUpdateAVX2(l *float64, nv int, inv float64, ncols, ld int)

// luUpdate is getrfCols' step j on the column-major panel c (m rows,
// leading dimension ld ≥ luLD(m), len(c) ≥ n·ld). The assembly scales
// the column below the pivot in whole four-row vectors, rounding the
// m−j−1 rows up into the column's spare rows, and then subtracts
// (u·l) AND (l ≠ 0) from each later column: a zero multiplier's lane
// subtracts +0, and x − (+0) is x for every x, so each element keeps
// the skip's bits (DESIGN §10).
func luUpdate(m, n int, c []float64, ld, j int, inv float64) {
	rows := m - j - 1
	if !useAVX2 || rows <= 0 {
		luUpdateGo(m, n, c, ld, j, inv)
		return
	}
	_ = c[n*ld-1]
	luUpdateAVX2(&c[j*ld+j+1], (rows+3)/4, inv, n-j-1, ld)
}

//go:noescape
func trsmAVX2(m, n int, t *float64, ldt int, b *float64, ldb int, lower, unit bool)

// trsm is Dtrsm on one slab of n ≤ trsmNB columns. The assembly holds
// row i of the slab in registers (the last one masked to n's tail),
// subtracts T[i,p]·X[p] for each solved row p in ascending p, branching
// over an exactly zero T[i,p] as the loop does, scales it by 1/T[i,i]
// unless unit and stores it once: every element sees the loop's
// operations in the loop's order.
func trsm(lower, unit bool, m, n int, t []float64, ldt int, b []float64, ldb int) {
	if !useAVX2 {
		trsmGo(lower, unit, m, n, t, ldt, b, ldb)
		return
	}
	_, _ = t[(m-1)*ldt+m-1], b[(m-1)*ldb+n-1]
	trsmAVX2(m, n, &t[0], ldt, &b[0], ldb, lower, unit)
}

//go:noescape
func absMaxAVX2(x *float64, nv int, lanes *[8]float64)

// pivotRow is the pivot search of getrfCols' step j on column col (m
// rows, spare rows up to luLD(m)): the row p ≥ j of the largest |col[p]|
// and that magnitude. The assembly takes rows j+1 … in whole four-row
// vectors, rounding up into the spare rows, and each lane keeps its
// first strict maximum; the lane with the largest, lowest row on a tie,
// replaces |col[j]| only if it is strictly larger. That is the loop's
// running strict maximum: the first row of the largest magnitude, no
// NaN ever taken, and row j unless some row beats it. The spare rows
// hold only ±0 or NaN (luUpdate writes them with ±0 or NaN multipliers),
// so they never beat a magnitude ≥ 0.
func pivotRow(col []float64, j, m int) (p int, best float64) {
	rows := m - j - 1
	if !useAVX2 || rows <= 0 {
		return pivotRowGo(col, j, m)
	}
	var lanes [8]float64
	nv := (rows + 3) / 4
	_ = col[j+4*nv]
	absMaxAVX2(&col[j+1], nv, &lanes)
	p, best = j, math.Abs(col[j])
	// The lexicographic maximum of (magnitude, −row) over the lanes; no
	// lane holds a NaN.
	q, mq := 0, -1.0
	for l, v := range lanes[:4] {
		if r := int(lanes[4+l]); v > mq || v >= mq && r < q {
			q, mq = r, v
		}
	}
	if mq > best {
		p, best = j+1+q, mq
	}
	return p, best
}

//go:noescape
func transposeAVX2(src *float64, lds int, dst *float64, ldd, rows, cols int)

// transpose sets dst[j·ldd+i] = src[i·lds+j] for i < rows, j < cols:
// the assembly on the largest block of whole 4×4 tiles, the Go loop on
// the rest.
func transpose(rows, cols int, src []float64, lds int, dst []float64, ldd int) {
	r4, c4 := rows&^3, cols&^3
	if !useAVX2 || r4 == 0 || c4 == 0 {
		r4, c4 = 0, 0
	} else {
		_, _ = src[(r4-1)*lds+c4-1], dst[(c4-1)*ldd+r4-1]
		transposeAVX2(&src[0], lds, &dst[0], ldd, r4, c4)
	}
	transposeGo(rows, cols, r4, c4, src, lds, dst, ldd)
}
