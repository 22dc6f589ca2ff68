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

// luUpdate is getrfCols' step: the portable loop on every row.
func luUpdate(m, n int, c []float64, ld, j int, inv float64) {
	luUpdateGo(m, n, c, ld, j, inv)
}

// trsm is Dtrsm on one slab: the portable loop.
func trsm(lower, unit bool, m, n int, t []float64, ldt int, b []float64, ldb int) {
	trsmGo(lower, unit, m, n, t, ldt, b, ldb)
}

// pivotRow is getrfCols' pivot search: the portable loop.
func pivotRow(col []float64, j, m int) (p int, best float64) {
	return pivotRowGo(col, j, m)
}

// transpose sets dst[j·ldd+i] = src[i·lds+j] for i < rows, j < cols:
// the portable loop.
func transpose(rows, cols int, src []float64, lds int, dst []float64, ldd int) {
	transposeGo(rows, cols, 0, 0, src, lds, dst, ldd)
}
