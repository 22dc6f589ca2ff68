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

// DgemmRows is Dgemm(1, n, k, −1, A[p·lda:], lda, B, ldb, 1, C[to[p]·ldc:],
// ldc) on each row p < len(to) of A with to[p] ≥ 0: C[to[p],:] ←
// C[to[p],:] − A[p,:k]·B, bit for bit, with gemmSmall's per-element
// order (ascending q) and zero-skip rule. A row whose target is negative
// is skipped. No target may index B's storage.
func DgemmRows(n, k int, a []float64, lda int, to []int32, b []float64, ldb int, c []float64, ldc int) {
	for p, g := range to {
		if g < 0 {
			continue
		}
		arow := a[p*lda:][:k]
		crow := c[int(g)*ldc:][:n]
		for q, v := range arow {
			aip := -1 * v
			if aip == 0 {
				continue
			}
			brow := b[q*ldb:][:len(crow)]
			for j, bv := range brow {
				crow[j] += float64(aip * bv)
			}
		}
	}
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
						crow[j] += float64(aip * v)
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
				runTiles(finite, nil, mc, nc, kc, s.pa[:], s.off[:], s.kept[:], s.pb[:], c[ic*ldc+jc:], ldc)
			}
		}
	}
	putScratch(s)
}

// DgemmPanel computes C[to[i],:] ← C[to[i],:] + Â[i,:]·B for every row i
// of the packed operand p with to[i] ≥ 0, where Â = α·A (alpha folded in
// by Pack), B is p.K×n (ldb) and C has leading dimension ldc; a row
// whose target is negative is computed and dropped. len(to) must be
// p.M. Each listed row is bitwise Dgemm(1, n, p.K, α, A[i:], lda, B, ldb,
// 1, C[to[i]:], ldc): runTiles runs every micro-panel whose four targets
// are not four consecutive rows through its edge tile, whose rows it
// reads and writes through to. The columns a micro-panel keeps for the
// sake of one row are zero in the others, and the kernels skip or
// exactly absorb them, so each C element's operation sequence is
// Dgemm's. Only B is packed per call, in one pass: p.K ≤ packKC (Pack
// checks it) and n ≤ packNC (the numeric phase's n is a block width, at
// most 32).
func DgemmPanel(p *Panel, to []int32, n int, b []float64, ldb int, c []float64, ldc int) {
	if p.M == 0 || n <= 0 || p.K == 0 {
		return
	}
	s := getScratch()
	k, nmp := p.K, (p.M+gemmMR-1)/gemmMR
	finite := packBPanel(k, n, b, ldb, s)
	runTiles(finite, to[:p.M], p.M, n, k, p.Vals, p.Ints, p.Ints[nmp*k:], s.pb[:], c, ldc)
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
// panel pb into the rows of c: row i of A meets row to[i] of c, or row i
// when to is nil, and a negative target drops the row. A micro-panel that
// kept no column has no tile to run. A tile that is not a full
// gemmMR×gemmNR block of c — its rows are fewer than gemmMR or not
// consecutive in c, or it has fewer than gemmNR columns — runs the same
// kernel on a zero-padded copy whose padding rows and lanes are
// discarded, so every C element goes through one kernel whatever its
// position. The AVX2 kernel runs only when finite and on tiles that hold
// no −0; every other tile takes the Go kernel. The kernel is called
// directly, not through a func value, so that escape analysis keeps the
// edge tile on the stack.
func runTiles(finite bool, to []int32, mc, nc, kc int, pa []float64, off, kept []int32, pb, c []float64, ldc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		nr := min(nc-jr, gemmNR)
		pbp := pb[jr*kc:]
		for i, lo := 0, 0; lo < mc; i, lo = i+1, lo+gemmMR {
			nk := int(kept[i])
			if nk == 0 {
				continue
			}
			pai, offi := pa[i*gemmMR*kc:], off[i*kc:]
			nrow := min(mc-lo, gemmMR)
			row := [gemmMR]int{-1, -1, -1, -1}
			full := nrow == gemmMR && nr == gemmNR
			for r := 0; r < nrow; r++ {
				row[r] = lo + r
				if to != nil {
					row[r] = int(to[lo+r])
				}
				full = full && row[r] >= 0 && row[r] == row[0]+r
			}
			if full {
				microKernel4x8(nk, pai, offi, pbp, c[row[0]*ldc+jr:], ldc, finite)
				continue
			}
			var tile [gemmMR * gemmNR]float64
			for r, g := range row {
				if g >= 0 {
					copy(tile[r*gemmNR:][:nr], c[g*ldc+jr:][:nr])
				}
			}
			microKernel4x8(nk, pai, offi, pbp, tile[:], gemmNR, finite)
			for r, g := range row {
				if g >= 0 {
					copy(c[g*ldc+jr:][:nr], tile[r*gemmNR:][:nr])
				}
			}
		}
	}
}

// Dtrsm solves op(T)·X = α·B in place (B is overwritten with X) where T
// is an m×m triangular matrix applied from the left. lower selects the
// triangle of T, unit an implicit unit diagonal. B is m×n row-major with
// leading dimension ldb.
//
// Both triangles run one substitution, unblocked at every size: the
// numeric phase's triangles are diagonal blocks, at most
// supernode.MaxWidth (32) rows. Row i of X (top-down for the lower
// triangle, bottom-up for the upper) subtracts T[i,p]·X[p] over the
// solved rows p in ascending p, skipping a T[i,p] that is exactly zero,
// then scales by 1/T[i,i] unless unit. trsm runs it on slabs of at most
// trsmNB columns, a row of which the AVX2 kernel holds in registers.
func Dtrsm(lower, unit bool, m, n int, alpha float64, t []float64, ldt int, b []float64, ldb int) {
	if alpha != 1 {
		for i := 0; i < m; i++ {
			row := b[i*ldb : i*ldb+n]
			for j := range row {
				row[j] *= alpha
			}
		}
	}
	if m == 0 || n == 0 {
		return
	}
	for j := 0; j < n; j += trsmNB {
		trsm(lower, unit, m, min(n-j, trsmNB), t, ldt, b[j:], ldb)
	}
}

// trsmNB is the widest B slab trsm takes: eight YMM registers of a row.
const trsmNB = 32

// trsmGo is the portable substitution on an m×n slab of B: the seed
// loop, each row's subtrahends in ascending p with the exact-zero skip.
func trsmGo(lower, unit bool, m, n int, t []float64, ldt int, b []float64, ldb int) {
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
				bi[j] -= float64(tip * v)
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
