//go:build !amd64

package blas

// microKernel4x8 is the portable dispatch: no assembly kernel on this
// architecture.
func microKernel4x8(nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int) {
	microKernel4x8Go(nk, pa, off, pb, c, ldc)
}
