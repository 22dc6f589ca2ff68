//go:build !amd64

package blas

// microKernel4x8 is the portable dispatch: no assembly kernel on this
// architecture, and the Go kernel's skip needs no finite hint.
func microKernel4x8(nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int, finite bool) {
	microKernel4x8Go(nk, pa, off, pb, c, ldc)
}

// finitePanel is always false here: there is no assembly kernel for the
// scan to admit, so none is worth running.
func finitePanel(pb []float64) bool { return false }

// AllFinite reports whether x holds no Inf or NaN: the portable twin of
// the amd64 AVX2 scan.
func AllFinite(x []float64) bool { return allFiniteGo(x) }
