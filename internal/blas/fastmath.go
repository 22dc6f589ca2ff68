// FastMath kernel mode: opt-in level-3 entry points with no bitwise
// reproducibility guarantee. The fast micro-kernels may fuse multiplies
// and adds (FMA), drop the exact-zero contribution skip, and
// reassociate accumulation, trading the determinism contract for
// throughput; results satisfy the usual componentwise backward-error
// bounds of Gaussian elimination (validated by the error-bound suite in
// internal/core) but are not byte-identical across kernels, worker
// counts, or hosts. Callers that need reproducibility use the plain
// Dgemm/Dtrsm/DgetrfStatic entry points, which are untouched by this
// mode.

package blas

// DgemmFast computes C ← α·A·B + β·C like Dgemm but through the
// FastMath micro-kernels on the packed path.
func DgemmFast(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, true)
}

// DtrsmFast solves op(T)·X = α·B like Dtrsm but routes the blocked
// lower solve's strip updates through the FastMath Dgemm.
func DtrsmFast(lower, unit bool, m, n int, alpha float64, t []float64, ldt int, b []float64, ldb int) {
	dtrsm(lower, unit, m, n, alpha, t, ldt, b, ldb, true)
}

// DgetrfStaticFast is DgetrfStatic with the trailing level-3 updates in
// FastMath mode. The panel kernel, pivot search, and perturbation
// policy are identical to the bitwise path, so the pivot sequence stays
// driven by the same comparisons — only the update arithmetic is
// relaxed.
func DgetrfStaticFast(m, n int, a []float64, lda int, ipiv []int, thresh float64, perturbed []int) (nperturbed, firstZero int) {
	return dgetrfStatic(m, n, a, lda, ipiv, thresh, perturbed, true)
}

// microKernel4x8FastGo is the portable FastMath full-tile kernel: the
// same register tile and kept-column walk as microKernel4x8Go but with
// the exact-zero skip removed, so the loop runs branch-free. On amd64
// the FMA3 assembly kernel replaces it at runtime.
func microKernel4x8FastGo(nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int) {
	c0 := c[0:8]
	c1 := c[ldc : ldc+8]
	c2 := c[2*ldc : 2*ldc+8]
	c3 := c[3*ldc : 3*ldc+8]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c04, c05, c06, c07 := c0[4], c0[5], c0[6], c0[7]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	c14, c15, c16, c17 := c1[4], c1[5], c1[6], c1[7]
	c20, c21, c22, c23 := c2[0], c2[1], c2[2], c2[3]
	c24, c25, c26, c27 := c2[4], c2[5], c2[6], c2[7]
	c30, c31, c32, c33 := c3[0], c3[1], c3[2], c3[3]
	c34, c35, c36, c37 := c3[4], c3[5], c3[6], c3[7]
	for q, o := range off[:nk] {
		bp := pb[o/8:][:gemmNR]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		b4, b5, b6, b7 := bp[4], bp[5], bp[6], bp[7]
		ap := pa[gemmMR*q : gemmMR*q+gemmMR]
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c24 += a2 * b4
		c25 += a2 * b5
		c26 += a2 * b6
		c27 += a2 * b7
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		c34 += a3 * b4
		c35 += a3 * b5
		c36 += a3 * b6
		c37 += a3 * b7
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c0[4], c0[5], c0[6], c0[7] = c04, c05, c06, c07
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
	c1[4], c1[5], c1[6], c1[7] = c14, c15, c16, c17
	c2[0], c2[1], c2[2], c2[3] = c20, c21, c22, c23
	c2[4], c2[5], c2[6], c2[7] = c24, c25, c26, c27
	c3[0], c3[1], c3[2], c3[3] = c30, c31, c32, c33
	c3[4], c3[5], c3[6], c3[7] = c34, c35, c36, c37
}
