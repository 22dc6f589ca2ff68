package blas

// Register micro-tile dimensions of the packed Dgemm path. The inner
// kernel computes a gemmMR×gemmNR block of C from one A micro-panel
// and one B micro-panel, keeping all 32 accumulators live across the
// whole k loop.
const (
	gemmMR = 4
	gemmNR = 8
)

// microKernel4x8Go is the portable full-tile kernel:
// C[0:4, 0:8] += Aᵖ·Bᵖ where Aᵖ holds the nk kept columns of a packed
// micro-panel (alpha already folded in) and Bᵖ is a packed B
// micro-panel; kept column q meets the B row at byte offset off[q].
// Contributions are accumulated one kept column at a time, in ascending
// k, and a packed A value of exactly zero contributes nothing — the same
// per-element operation order and skip rule as the seed kernel, so the
// result is bitwise identical to it.
func microKernel4x8Go(nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int) {
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
		if a := ap[0]; a != 0 {
			c00 += float64(a * b0)
			c01 += float64(a * b1)
			c02 += float64(a * b2)
			c03 += float64(a * b3)
			c04 += float64(a * b4)
			c05 += float64(a * b5)
			c06 += float64(a * b6)
			c07 += float64(a * b7)
		}
		if a := ap[1]; a != 0 {
			c10 += float64(a * b0)
			c11 += float64(a * b1)
			c12 += float64(a * b2)
			c13 += float64(a * b3)
			c14 += float64(a * b4)
			c15 += float64(a * b5)
			c16 += float64(a * b6)
			c17 += float64(a * b7)
		}
		if a := ap[2]; a != 0 {
			c20 += float64(a * b0)
			c21 += float64(a * b1)
			c22 += float64(a * b2)
			c23 += float64(a * b3)
			c24 += float64(a * b4)
			c25 += float64(a * b5)
			c26 += float64(a * b6)
			c27 += float64(a * b7)
		}
		if a := ap[3]; a != 0 {
			c30 += float64(a * b0)
			c31 += float64(a * b1)
			c32 += float64(a * b2)
			c33 += float64(a * b3)
			c34 += float64(a * b4)
			c35 += float64(a * b5)
			c36 += float64(a * b6)
			c37 += float64(a * b7)
		}
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
