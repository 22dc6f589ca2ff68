package blas

import "math"

// Dgemm computes C ← α·A·B + β·C for row-major matrices: A is m×k (lda),
// B is k×n (ldb), C is m×n (ldc). Only the non-transposed case is
// provided; the factorization arranges its operands so that suffices.
//
// Three code paths produce bitwise-identical results: a one-column
// kernel for n = 1, a scalar i-k-j AXPY kernel for small operands and a
// packed, register-tiled kernel (pack.go / microkernel.go) for
// everything else. All accumulate each
// C element's contributions one k at a time in ascending k and skip a
// contribution exactly when α·A[i,p] == 0, so the floating-point
// operation sequence per element — and therefore the rounding — is
// identical no matter which path runs. (The AVX2 micro-kernel adds the
// ±0 such a contribution is instead of skipping it only where that
// provably leaves the element's bits unchanged; see microKernel4x8.)
func Dgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, false)
}

// dgemm is the shared driver behind Dgemm and DgemmFast. fast selects
// the FastMath micro-kernels on the packed path; the beta pass, the
// dispatch heuristic, and the scalar small-operand kernel are common to
// both modes.
func dgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int, fast bool) {
	if beta != 1 {
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			if beta == 0 {
				for j := range row {
					row[j] = 0
				}
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	if n == 1 {
		gemmCol(m, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	if m >= gemmMR && n >= gemmNR && m*n*k >= packedGemmCutoff {
		gemmPacked(m, n, k, alpha, a, lda, b, ldb, c, ldc, fast)
		return
	}
	gemmSmall(m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// gemmSmall is the seed scalar kernel: i-k-j loop order with k/m
// blocking so the inner loop is a contiguous AXPY over a row of B.
// It handles the operands too small to amortize packing.
func gemmSmall(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for kb := 0; kb < k; kb += gemmKC {
		kEnd := kb + gemmKC
		if kEnd > k {
			kEnd = k
		}
		for ib := 0; ib < m; ib += gemmMC {
			iEnd := ib + gemmMC
			if iEnd > m {
				iEnd = m
			}
			for i := ib; i < iEnd; i++ {
				crow := c[i*ldc : i*ldc+n]
				arow := a[i*lda:]
				for p := kb; p < kEnd; p++ {
					aip := alpha * arow[p]
					if aip == 0 {
						continue
					}
					brow := b[p*ldb : p*ldb+n]
					for j, v := range brow {
						crow[j] += aip * v
					}
				}
			}
		}
	}
}

// gemmCol is the n = 1 kernel: each C element keeps its running sum in
// a register across the ascending-p loop, four rows at a time so that
// four independent add chains are in flight. It is branch-free — a
// contribution whose coefficient α·A[i,p] compares equal to zero is
// replaced by −0.0, which leaves every accumulator (±0, NaN and Inf
// included) unchanged — so it is bitwise identical to gemmSmall's skip
// at every zero density.
func gemmCol(m, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[i*lda : i*lda+k]
		a1 := a[(i+1)*lda:][:len(a0)]
		a2 := a[(i+2)*lda:][:len(a0)]
		a3 := a[(i+3)*lda:][:len(a0)]
		s0, s1, s2, s3 := c[i*ldc], c[(i+1)*ldc], c[(i+2)*ldc], c[(i+3)*ldc]
		for p := range a0 {
			bp := b[p*ldb]
			x0, x1, x2, x3 := alpha*a0[p], alpha*a1[p], alpha*a2[p], alpha*a3[p]
			s0 += unlessZero(x0, x0*bp, negZero)
			s1 += unlessZero(x1, x1*bp, negZero)
			s2 += unlessZero(x2, x2*bp, negZero)
			s3 += unlessZero(x3, x3*bp, negZero)
		}
		c[i*ldc], c[(i+1)*ldc], c[(i+2)*ldc], c[(i+3)*ldc] = s0, s1, s2, s3
	}
	for ; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		s := c[i*ldc]
		for p, v := range arow {
			aip := alpha * v
			s += unlessZero(aip, aip*b[p*ldb], negZero)
		}
		c[i*ldc] = s
	}
}

// negZero and posZero are the bit patterns of the no-op addend and
// subtrahend: s + (−0) and s − (+0) equal s bit for bit for every s.
const (
	negZero = 1 << 63
	posZero = 0
)

// unlessZero returns v, or the float with bits noop when coef compares
// equal to zero (±0), without a branch: keep is all ones exactly when
// |coef| > 0, and the select is a mask over the bit patterns.
func unlessZero(coef, v float64, noop uint64) float64 {
	keep := uint64(-int64(math.Float64bits(coef)&^(1<<63)) >> 63)
	return math.Float64frombits((math.Float64bits(v)^noop)&keep ^ noop)
}

// gemmPacked is the five-loop BLIS-style kernel: B panels of KC×NC rows
// are packed once and reused across all A blocks, A blocks of MC×KC are
// packed with alpha folded in and their all-zero columns dropped, and
// the packed micro-panels feed the gemmMR×gemmNR register-tile kernel.
// A micro-panel that kept no column has no tile to run. An edge tile
// (fewer than gemmMR rows or gemmNR columns of C) runs the same kernel
// on a zero-padded copy whose padding lanes are discarded, so every C
// element goes through one kernel whatever its position. The bitwise
// kernel drops its zero mask on the tiles of a finite packed B panel
// that hold no −0. The blocks are
// packMC×packKC of A and packKC×packNC of B, the scratch dimensions.
// Packing scratch comes from the scratch freelist, so steady-state calls
// do not allocate. fast swaps the micro-kernel for the FastMath one.
func gemmPacked(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, fast bool) {
	s := getScratch()
	for jc := 0; jc < n; jc += packNC {
		nc := min(n-jc, packNC)
		for pc := 0; pc < k; pc += packKC {
			kc := min(k-pc, packKC)
			packB(kc, nc, b[pc*ldb+jc:], ldb, s.pb[:])
			finite := !fast && finitePanel(s.pb[:(nc+gemmNR-1)/gemmNR*gemmNR*kc])
			for ic := 0; ic < m; ic += packMC {
				mc := min(m-ic, packMC)
				packA(mc, kc, alpha, a[ic*lda+pc:], lda, s)
				for jr := 0; jr < nc; jr += gemmNR {
					nr := nc - jr
					if nr > gemmNR {
						nr = gemmNR
					}
					pbp := s.pb[jr*kc:]
					for ir := 0; ir < mc; ir += gemmMR {
						nk := s.kept[ir/gemmMR]
						if nk == 0 {
							continue
						}
						mr := mc - ir
						if mr > gemmMR {
							mr = gemmMR
						}
						pa, off := s.pa[ir*kc:], s.off[ir/gemmMR*kc:]
						cc := c[(ic+ir)*ldc+jc+jr:]
						if mr == gemmMR && nr == gemmNR {
							microTile(fast, finite, nk, pa, off, pbp, cc, ldc)
							continue
						}
						var tile [gemmMR * gemmNR]float64
						for r := 0; r < mr; r++ {
							copy(tile[r*gemmNR:][:nr], cc[r*ldc:][:nr])
						}
						microTile(fast, finite, nk, pa, off, pbp, tile[:], gemmNR)
						for r := 0; r < mr; r++ {
							copy(cc[r*ldc:][:nr], tile[r*gemmNR:][:nr])
						}
					}
				}
			}
		}
	}
	putScratch(s)
}

// microTile runs the bitwise or the FastMath register-tile kernel. It
// calls them directly, not through a func value, so that escape analysis
// keeps gemmPacked's edge tile on the stack. finite (no Inf or NaN in
// the packed B panel) lets the bitwise kernel drop its zero mask.
func microTile(fast, finite bool, nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int) {
	if fast {
		microKernel4x8Fast(nk, pa, off, pb, c, ldc)
	} else {
		microKernel4x8(nk, pa, off, pb, c, ldc, finite)
	}
}

// Dtrsm solves op(T)·X = α·B in place (B is overwritten with X) where T
// is an m×m triangular matrix applied from the left. lower selects the
// triangle of T, unit an implicit unit diagonal. B is m×n row-major with
// leading dimension ldb.
//
// The lower solve is blocked in strips of packNB rows: each strip first
// receives the contributions of all rows above it through Dgemm
// (ascending p, same per-element order and T==0 skip as the unblocked
// loop, so results stay bitwise identical for any strip width) and is
// then solved unblocked. The upper solve stays unblocked: it walks
// rows bottom-up but accumulates each element's subtrahends in
// ascending p, an order a strip decomposition would reorder — and it
// only runs in the triangular-solve phase, not under the
// factorization's update tasks. A single column (n = 1) of either
// triangle takes trsmCol, one register-held pass in the same order.
func Dtrsm(lower, unit bool, m, n int, alpha float64, t []float64, ldt int, b []float64, ldb int) {
	dtrsm(lower, unit, m, n, alpha, t, ldt, b, ldb, false)
}

// dtrsm is the shared driver behind Dtrsm and DtrsmFast: fast is passed
// down to the strip-update Dgemm of the blocked lower solve.
func dtrsm(lower, unit bool, m, n int, alpha float64, t []float64, ldt int, b []float64, ldb int, fast bool) {
	if alpha != 1 {
		for i := 0; i < m; i++ {
			row := b[i*ldb : i*ldb+n]
			for j := range row {
				row[j] *= alpha
			}
		}
	}
	if n == 1 {
		trsmCol(lower, unit, m, t, ldt, b, ldb)
		return
	}
	if lower {
		if m <= packNB {
			trsmLowerUnblocked(unit, m, n, t, ldt, b, ldb)
			return
		}
		for i0 := 0; i0 < m; i0 += packNB {
			ib := min(m-i0, packNB)
			if i0 > 0 {
				// B[i0:i0+ib] -= T[i0:i0+ib, 0:i0] · X[0:i0]
				dgemm(ib, n, i0, -1, t[i0*ldt:], ldt, b, ldb, 1, b[i0*ldb:], ldb, fast)
			}
			trsmLowerUnblocked(unit, ib, n, t[i0*ldt+i0:], ldt, b[i0*ldb:], ldb)
		}
		return
	}
	for i := m - 1; i >= 0; i-- {
		bi := b[i*ldb : i*ldb+n]
		trow := t[i*ldt+i+1 : i*ldt+m]
		for pj, tip := range trow {
			if tip == 0 {
				continue
			}
			p := i + 1 + pj
			bp := b[p*ldb : p*ldb+n]
			for j, v := range bp {
				bi[j] -= tip * v
			}
		}
		if !unit {
			d := 1 / t[i*ldt+i]
			for j := range bi {
				bi[j] *= d
			}
		}
	}
}

// trsmLowerUnblocked is the seed forward-substitution loop on an m×m
// lower triangle. Each row of X accumulates its subtrahends in
// ascending p with an exact-zero skip on T — the contract the blocked
// driver and Dgemm preserve.
func trsmLowerUnblocked(unit bool, m, n int, t []float64, ldt int, b []float64, ldb int) {
	for i := 0; i < m; i++ {
		bi := b[i*ldb : i*ldb+n]
		trow := t[i*ldt : i*ldt+i]
		for p, tip := range trow {
			if tip == 0 {
				continue
			}
			bp := b[p*ldb : p*ldb+n]
			for j, v := range bp {
				bi[j] -= tip * v
			}
		}
		if !unit {
			d := 1 / t[i*ldt+i]
			for j := range bi {
				bi[j] *= d
			}
		}
	}
}

// trsmCol is the n = 1 solve of either triangle: the register-held,
// branch-free form of the loops above (see gemmCol). Each row subtracts
// its T[i,p]·x[p] in ascending p, with +0.0 — the no-op subtrahend — in
// place of a term whose coefficient is zero. One unblocked pass is the
// blocked lower solve's order too, so no strip split is needed.
func trsmCol(lower, unit bool, m int, t []float64, ldt int, b []float64, ldb int) {
	for r := 0; r < m; r++ {
		i, lo, hi := r, 0, r
		if !lower {
			i, lo, hi = m-1-r, m-r, m
		}
		s := b[i*ldb]
		trow := t[i*ldt+lo : i*ldt+hi]
		for pj, tip := range trow {
			s -= unlessZero(tip, tip*b[(lo+pj)*ldb], posZero)
		}
		if !unit {
			s *= 1 / t[i*ldt+i]
		}
		b[i*ldb] = s
	}
}
