// Package blas implements the subset of dense linear-algebra kernels
// (BLAS levels 1–3 and a few LAPACK-style routines) that the supernodal
// sparse LU factorization runs on. The paper used the SGI SCSL BLAS; this
// package is the pure-Go substitute.
//
// Matrices are dense, row-major, with an explicit leading dimension ld
// (the stride between consecutive rows), so that sub-blocks of a larger
// block can be addressed without copying: element (i, j) of a matrix a
// lives at a[i*ld+j].
package blas

// Dswap exchanges n strided elements of x and y.
func Dswap(n int, x []float64, incx int, y []float64, incy int) {
	ix, iy := 0, 0
	for i := 0; i < n; i++ {
		x[ix], y[iy] = y[iy], x[ix]
		ix += incx
		iy += incy
	}
}
