package core

import (
	"math"

	"repro/internal/sparse"
)

// Equilibrate computes row and column scale factors in the manner of
// LAPACK's dgeequ: r[i] = 1/max_j|a_ij|, then c[j] = 1/max_i|r_i·a_ij|,
// so that R·A·C has all row and column maxima equal to one. Rows or
// columns that are entirely zero get scale 1. Equilibration improves
// pivot quality on badly scaled systems without changing the structure.
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
		if r[i] == 0 {
			r[i] = 1
		} else {
			r[i] = 1 / r[i]
		}
	}
	for j := 0; j < a.NCols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		m := 0.0
		for k := lo; k < hi; k++ {
			if v := math.Abs(a.Val[k]) * r[a.RowInd[k]]; v > m {
				m = v
			}
		}
		if m == 0 {
			c[j] = 1
		} else {
			c[j] = 1 / m
		}
	}
	return r, c
}
