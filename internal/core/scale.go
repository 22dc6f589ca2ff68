package core

import (
	"math"

	"repro/internal/sparse"
)

// Equilibrate computes row and column scale factors in the manner of
// LAPACK's dgeequ: r[i] = 1/max_j|a_ij|, then c[j] = 1/max_i|r_i·a_ij|,
// so that R·A·C has all row and column maxima equal to one. Rows or
// columns whose maximum is zero or subnormal get scale 1: the reciprocal
// of a subnormal can overflow to +Inf, and Inf·0 would turn finite input
// into NaN. Equilibration improves pivot quality on badly scaled systems
// without changing the structure.
func Equilibrate(a *sparse.CSC) (r, c []float64) {
	n := a.NRows
	r = make([]float64, n)
	c = make([]float64, a.NCols)
	for k, i := range a.RowInd {
		if v := math.Abs(a.Val[k]); v > r[i] {
			r[i] = v
		}
	}
	for i := range r {
		r[i] = scaleOf(r[i])
	}
	for j := 0; j < a.NCols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		m := 0.0
		for k := lo; k < hi; k++ {
			if v := math.Abs(a.Val[k]) * r[a.RowInd[k]]; v > m {
				m = v
			}
		}
		c[j] = scaleOf(m)
	}
	return r, c
}

// scaleOf returns the scale of a row or column with maximum magnitude m:
// 1/m, or 1 when m is below the smallest normal float64.
func scaleOf(m float64) float64 {
	if m < 0x1p-1022 {
		return 1
	}
	return 1 / m
}
