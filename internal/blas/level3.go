package blas

// Dgemm computes C ← α·A·B + β·C for row-major matrices: A is m×k (lda),
// B is k×n (ldb), C is m×n (ldc). Only the non-transposed case is
// provided; the factorization arranges its operands so that suffices.
//
// Two code paths produce bitwise-identical results: a scalar i-k-j AXPY
// kernel for small operands (every n = 1 product among them) and a
// packed, register-tiled kernel (pack.go / microkernel.go) for
// everything else. Both accumulate each C element's contributions one k
// at a time in ascending k and skip a contribution exactly when
// α·A[i,p] == 0, so the floating-point operation sequence per element —
// and therefore the rounding — is identical no matter which path runs.
// (The AVX2 micro-kernel adds the ±0 such a contribution is instead of
// skipping it, and runs only on tiles where that provably leaves every
// element's bits unchanged; see microKernel4x8.)
func Dgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
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
	if PackedShape(m, n, k) {
		gemmPacked(m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	gemmSmall(m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// PackedShape reports whether Dgemm runs an m×n×k product on the packed
// path: at least one full register tile and enough work to amortize
// packing. Smaller products run the seed scalar kernel.
func PackedShape(m, n, k int) bool {
	return m >= gemmMR && n >= gemmNR && m*n*k >= packedGemmCutoff
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

// gemmPacked is the five-loop BLIS-style kernel: B panels of KC×NC rows
// are packed once and reused across all A blocks, A blocks of MC×KC are
// packed with alpha folded in and their all-zero columns dropped, and
// runTiles feeds the packed micro-panels to the gemmMR×gemmNR
// register-tile kernel. The blocks are packMC×packKC of A and
// packKC×packNC of B, the scratch dimensions. Packing scratch comes from
// the scratch freelist, so steady-state calls do not allocate.
func gemmPacked(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	s := getScratch()
	for jc := 0; jc < n; jc += packNC {
		nc := min(n-jc, packNC)
		for pc := 0; pc < k; pc += packKC {
			kc := min(k-pc, packKC)
			finite := packBPanel(kc, nc, b[pc*ldb+jc:], ldb, s)
			for ic := 0; ic < m; ic += packMC {
				mc := min(m-ic, packMC)
				packA(mc, kc, alpha, a[ic*lda+pc:], lda, s.pa[:], s.off[:], s.kept[:])
				runTiles(finite, 0, mc, nc, kc, s.pa[:], s.off[:], s.kept[:], s.pb[:], c[ic*ldc+jc:], ldc)
			}
		}
	}
	putScratch(s)
}

// DgemmPanel computes C ← C + Â[r0:r0+m, :]·B, where Â = α·A is the
// packed operand p (alpha folded in by Pack), B is p.K×n (ldb) and C is
// m×n (ldc). It is bitwise Dgemm(m, n, p.K, α, A[r0:], lda, B, ldb, 1, C,
// ldc) on the rows of the window, which may start and end inside a
// micro-panel: runTiles takes a micro-panel that straddles either end
// through its edge tile and discards the rows outside the window. The
// columns such a micro-panel keeps for the sake of an outside row are
// zero in the window's rows, and the kernels skip or exactly absorb
// them, so each C element's operation sequence is Dgemm's. Only B is
// packed per call, in one pass: p.K ≤ packKC (Pack checks it) and n ≤
// packNC (the numeric phase's n is a block width, at most 32).
func DgemmPanel(p *Panel, r0, m, n int, b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || p.K == 0 {
		return
	}
	s := getScratch()
	k, nmp := p.K, (p.M+gemmMR-1)/gemmMR
	i0, lane0 := r0/gemmMR, r0%gemmMR
	finite := packBPanel(k, n, b, ldb, s)
	runTiles(finite, lane0, m, n, k, p.Vals[i0*gemmMR*k:], p.Ints[i0*k:], p.Ints[nmp*k+i0:], s.pb[:], c, ldc)
	putScratch(s)
}

// packBPanel packs the kc×nc block of B at b into s.pb and reports
// whether the AVX2 kernel may run on it: no Inf or NaN in the packed
// panel.
func packBPanel(kc, nc int, b []float64, ldb int, s *gemmScratch) bool {
	packB(kc, nc, b, ldb, s.pb[:])
	return finitePanel(s.pb[:(nc+gemmNR-1)/gemmNR*gemmNR*kc])
}

// runTiles is the register-tile loop of both packed paths: it adds the
// product of packed A micro-panels (pa, off, kept; stride gemmMR·kc
// values and kc offsets, as packA lays them out) and the packed kc×nc B
// panel pb into the mc rows of c. Row lane0 of the first micro-panel
// meets row 0 of c, so micro-panel i covers rows [4i−lane0, 4i−lane0+4).
// A micro-panel that kept no column has no tile to run. A tile that is
// not a full gemmMR×gemmNR block of c — it straddles row 0 or row mc, or
// has fewer than gemmNR columns — runs the same kernel on a zero-padded
// copy whose padding rows and lanes are discarded, so every C element
// goes through one kernel whatever its position. The AVX2 kernel runs
// only when finite and on tiles that hold no −0; every other tile takes
// the Go kernel. The kernel is called directly, not through a func
// value, so that escape analysis keeps the edge tile on the stack.
func runTiles(finite bool, lane0, mc, nc, kc int, pa []float64, off, kept []int32, pb, c []float64, ldc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		nr := min(nc-jr, gemmNR)
		pbp := pb[jr*kc:]
		for i, lo := 0, -lane0; lo < mc; i, lo = i+1, lo+gemmMR {
			nk := int(kept[i])
			if nk == 0 {
				continue
			}
			pai, offi := pa[i*gemmMR*kc:], off[i*kc:]
			if lo >= 0 && lo+gemmMR <= mc && nr == gemmNR {
				microKernel4x8(nk, pai, offi, pbp, c[lo*ldc+jr:], ldc, finite)
				continue
			}
			r0, r1 := max(-lo, 0), min(mc-lo, gemmMR)
			var tile [gemmMR * gemmNR]float64
			for r := r0; r < r1; r++ {
				copy(tile[r*gemmNR:][:nr], c[(lo+r)*ldc+jr:][:nr])
			}
			microKernel4x8(nk, pai, offi, pbp, tile[:], gemmNR, finite)
			for r := r0; r < r1; r++ {
				copy(c[(lo+r)*ldc+jr:][:nr], tile[r*gemmNR:][:nr])
			}
		}
	}
}

// Dtrsm solves op(T)·X = α·B in place (B is overwritten with X) where T
// is an m×m triangular matrix applied from the left. lower selects the
// triangle of T, unit an implicit unit diagonal. B is m×n row-major with
// leading dimension ldb.
//
// Both triangles run one substitution loop, unblocked at every size:
// the numeric phase's triangles are diagonal blocks, at most
// supernode.MaxWidth (32) rows. Row i of X (top-down for the lower
// triangle, bottom-up for the upper) subtracts T[i,p]·X[p] over the
// solved rows p in ascending p, skipping a T[i,p] that is exactly zero,
// then scales by 1/T[i,i] unless unit.
func Dtrsm(lower, unit bool, m, n int, alpha float64, t []float64, ldt int, b []float64, ldb int) {
	if alpha != 1 {
		for i := 0; i < m; i++ {
			row := b[i*ldb : i*ldb+n]
			for j := range row {
				row[j] *= alpha
			}
		}
	}
	for s := 0; s < m; s++ {
		i, lo, hi := s, 0, s
		if !lower {
			i, lo, hi = m-1-s, m-s, m
		}
		bi := b[i*ldb : i*ldb+n]
		trow := t[i*ldt+lo : i*ldt+hi]
		for pj, tip := range trow {
			if tip == 0 {
				continue
			}
			p := lo + pj
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
