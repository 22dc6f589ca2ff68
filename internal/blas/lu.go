package blas

import (
	"errors"
	"math"
)

// ErrSingular is returned when a pivot column is exactly zero.
var ErrSingular = errors.New("blas: matrix is numerically singular")

// Dlaswp applies the row interchanges recorded in ipiv to the m×n
// row-major matrix a: for i = 0..len(ipiv)-1, row i is swapped with row
// ipiv[i]. Applying the same ipiv again undoes the permutation only if
// applied in reverse; the factorization always applies it forward.
func Dlaswp(n int, a []float64, lda int, ipiv []int) {
	for i, p := range ipiv {
		if p != i {
			Dswap(n, a[i*lda:], 1, a[p*lda:], 1)
		}
	}
}

// Dgetf2 computes the LU factorization with partial pivoting of an m×n
// row-major matrix (m ≥ n panels are typical): A = P·L·U where L is unit
// lower trapezoidal and U upper triangular, stored in place. ipiv must
// have length min(m, n); on return ipiv[i] is the row swapped with row i
// at step i. Returns ErrSingular if a pivot is exactly zero (the
// factorization still completes the remaining columns, matching LAPACK's
// info convention loosely).
func Dgetf2(m, n int, a []float64, lda int, ipiv []int) error {
	if _, firstZero := Dgetf2Static(m, n, a, lda, ipiv, 0, nil); firstZero >= 0 {
		return ErrSingular
	}
	return nil
}

// Dgetf2Static is the panel kernel of the static-pivoting factorization:
// the same in-place LU with partial pivoting as Dgetf2, but with the two
// degradation policies of a solver that cannot exchange rows outside the
// panel's static row set.
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
func Dgetf2Static(m, n int, a []float64, lda int, ipiv []int, thresh float64, perturbed []int) (nperturbed, firstZero int) {
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

// DgetrfStatic is the blocked right-looking variant of Dgetf2Static:
// identical contract (static row set, fail/perturb degradation, ipiv
// and perturbed indices local to the whole panel), but panels wider
// than the runtime NB are factored NB columns at a time with
// Dtrsm/Dgemm trailing updates so the bulk of the work runs in the
// packed level-3 kernels.
//
// The result is bitwise identical to Dgetf2Static on the same input for
// any NB: the trailing update applies the same l·u subtrahends to each
// element in the same ascending elimination order, and a column skipped
// for an exactly zero pivot (fail mode) is zero everywhere below the
// diagonal — the pivot search covered all remaining rows — so the
// level-3 updates' exact-zero skips reproduce the unblocked kernel's
// skipped eliminations automatically.
func DgetrfStatic(m, n int, a []float64, lda int, ipiv []int, thresh float64, perturbed []int) (nperturbed, firstZero int) {
	return dgetrfStatic(m, n, a, lda, ipiv, thresh, perturbed, false)
}

// dgetrfStatic is the shared driver behind DgetrfStatic and
// DgetrfStaticFast: fast is passed to the level-3 trailing updates; the
// panel kernel and pivot handling are identical in both modes.
func dgetrfStatic(m, n int, a []float64, lda int, ipiv []int, thresh float64, perturbed []int, fast bool) (nperturbed, firstZero int) {
	mn := m
	if n < mn {
		mn = n
	}
	nb := Tiles().NB
	if mn <= nb {
		return Dgetf2Static(m, n, a, lda, ipiv, thresh, perturbed)
	}
	firstZero = -1
	for j := 0; j < mn; j += nb {
		jb := nb
		if j+jb > mn {
			jb = mn - j
		}
		// Factor the panel A[j:m, j:j+jb].
		var sub []int
		if perturbed != nil {
			sub = perturbed[nperturbed:]
		}
		np, fz := Dgetf2Static(m-j, jb, a[j*lda+j:], lda, ipiv[j:j+jb], thresh, sub)
		if fz >= 0 && firstZero < 0 {
			firstZero = j + fz
		}
		for i := 0; i < np; i++ {
			perturbed[nperturbed+i] += j
		}
		nperturbed += np
		// Convert panel-local pivot indices to global and apply the
		// interchanges to the columns outside the panel.
		for i := j; i < j+jb; i++ {
			ipiv[i] += j
			p := ipiv[i]
			if p != i {
				// Left of panel.
				Dswap(j, a[i*lda:], 1, a[p*lda:], 1)
				// Right of panel.
				if j+jb < n {
					Dswap(n-j-jb, a[i*lda+j+jb:], 1, a[p*lda+j+jb:], 1)
				}
			}
		}
		if j+jb < n {
			// U block row: solve L11 · U12 = A12.
			dtrsm(true, true, jb, n-j-jb, 1, a[j*lda+j:], lda, a[j*lda+j+jb:], lda, fast)
			// Trailing update: A22 ← A22 − L21 · U12.
			if j+jb < m {
				dgemm(m-j-jb, n-j-jb, jb, -1,
					a[(j+jb)*lda+j:], lda,
					a[j*lda+j+jb:], lda,
					1, a[(j+jb)*lda+j+jb:], lda, fast)
			}
		}
	}
	return nperturbed, firstZero
}

// Dgetrf computes a blocked LU factorization with partial pivoting of an
// m×n row-major matrix, equivalent to Dgetf2 but using Dtrsm/Dgemm on
// trailing blocks for cache efficiency. ipiv has length min(m, n).
func Dgetrf(m, n int, a []float64, lda int, ipiv []int) error {
	if _, firstZero := DgetrfStatic(m, n, a, lda, ipiv, 0, nil); firstZero >= 0 {
		return ErrSingular
	}
	return nil
}

// Dgetrs solves A·x = b using the factorization computed by
// Dgetrf/Dgetf2 on a square n×n matrix, overwriting b with the solution.
func Dgetrs(n int, a []float64, lda int, ipiv []int, b []float64) {
	for i, p := range ipiv {
		if p != i {
			b[i], b[p] = b[p], b[i]
		}
	}
	Dtrsv(true, true, n, a, lda, b)   // L·y = Pb
	Dtrsv(false, false, n, a, lda, b) // U·x = y
}
