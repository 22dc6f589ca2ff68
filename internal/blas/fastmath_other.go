//go:build !amd64

// FastMath portable dispatch. See fastmath.go for the mode's contract.

package blas

// microKernel4x8Fast is the portable FastMath dispatch: no assembly
// kernel on this architecture.
func microKernel4x8Fast(nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int) {
	microKernel4x8FastGo(nk, pa, off, pb, c, ldc)
}
