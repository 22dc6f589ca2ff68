package blas

import (
	"errors"
	"math"
)

// ErrSingular is returned when a pivot column is exactly zero.
var ErrSingular = errors.New("blas: matrix is numerically singular")

// DgetrfStatic is the panel kernel of the static-pivoting
// factorization: the LU factorization with partial pivoting of an m×n
// row-major matrix (m ≥ n panels are typical), A = P·L·U with L unit
// lower trapezoidal and U upper triangular, stored in place. ipiv must
// have length min(m, n); on return ipiv[j] is the row swapped with row
// j at step j. It has the two degradation policies of a solver that
// cannot exchange rows outside the panel's static row set.
//
// It is one unblocked right-looking loop at every size: a panel of the
// numeric phase is at most supernode.MaxWidth (32) columns wide.
//
// With thresh <= 0 (fail mode) an exactly zero pivot column is skipped —
// the factorization completes the remaining columns — and firstZero
// reports the first (lowest) panel-local column whose pivot was exactly
// zero, or -1 if none was.
//
// With thresh > 0 (perturbation mode, SuperLU_DIST style) a pivot whose
// magnitude falls below thresh is replaced by ±thresh, preserving its
// sign bit (+0 becomes +thresh and −0 becomes −thresh), so the
// factorization never fails; the panel-local indices of the perturbed
// columns are written in ascending order to the caller-provided
// perturbed buffer (which must have room for min(m, n) entries — the hot
// path preallocates it so factoring never allocates), nperturbed reports
// how many were written, and firstZero is always -1.  Callers are
// expected to recover the lost accuracy with iterative refinement.
func DgetrfStatic(m, n int, a []float64, lda int, ipiv []int, thresh float64, perturbed []int) (nperturbed, firstZero int) {
	mn := m
	if n < mn {
		mn = n
	}
	firstZero = -1
	for j := 0; j < mn; j++ {
		// Find pivot in column j, rows j..m-1.
		p := j
		best := math.Abs(a[j*lda+j])
		for i := j + 1; i < m; i++ {
			if v := math.Abs(a[i*lda+j]); v > best {
				best, p = v, i
			}
		}
		ipiv[j] = p
		if best == 0 && thresh <= 0 {
			if firstZero < 0 {
				firstZero = j
			}
			continue
		}
		if p != j {
			Dswap(n, a[j*lda:], 1, a[p*lda:], 1)
		}
		piv := a[j*lda+j]
		if thresh > 0 && math.Abs(piv) < thresh {
			// Sign-preserving static perturbation: a tiny pivot cannot be
			// exchanged away (the row set is fixed), so bump it to the
			// threshold instead of failing.
			if math.Signbit(piv) {
				piv = -thresh
			} else {
				piv = thresh
			}
			a[j*lda+j] = piv
			perturbed[nperturbed] = j
			nperturbed++
		}
		inv := 1 / piv
		for i := j + 1; i < m; i++ {
			lij := a[i*lda+j] * inv
			a[i*lda+j] = lij
			if lij == 0 {
				continue
			}
			arow := a[i*lda+j+1 : i*lda+n]
			urow := a[j*lda+j+1 : j*lda+n]
			for t, v := range urow {
				arow[t] -= lij * v
			}
		}
	}
	return nperturbed, firstZero
}

// Dgetrf is DgetrfStatic in fail mode: the LU factorization with
// partial pivoting of an m×n row-major matrix, in place, with ipiv of
// length min(m, n). It returns ErrSingular if a pivot column is exactly
// zero (the remaining columns are still factored).
func Dgetrf(m, n int, a []float64, lda int, ipiv []int) error {
	if _, firstZero := DgetrfStatic(m, n, a, lda, ipiv, 0, nil); firstZero >= 0 {
		return ErrSingular
	}
	return nil
}

// Dgetrs solves A·x = b using the factorization computed by Dgetrf on a
// square n×n matrix, overwriting b with the solution.
func Dgetrs(n int, a []float64, lda int, ipiv []int, b []float64) {
	for i, p := range ipiv {
		if p != i {
			b[i], b[p] = b[p], b[i]
		}
	}
	Dtrsv(true, true, n, a, lda, b)   // L·y = Pb
	Dtrsv(false, false, n, a, lda, b) // U·x = y
}
