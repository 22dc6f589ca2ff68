//go:build !amd64

package blas

// microKernel4x8 is the portable dispatch: no assembly kernel on this
// architecture, and the Go kernel's skip needs no finite hint.
func microKernel4x8(nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int, finite bool) {
	microKernel4x8Go(nk, pa, off, pb, c, ldc)
}

// finitePanel is always false here: the Go kernel has no zero mask to
// drop, so no scan is worth running.
func finitePanel(pb []float64) bool { return false }
