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
// numeric phase is at most supernode.MaxWidth (32) columns wide. The loop
// runs on a column-major copy of the panel (getrfCols) in the pa array
// of a packing scratch, so that the pivot search, the scaling and the
// rank-1 update stream contiguous columns; a panel whose copy would not
// fit (luLD(m)·n > packMC·packKC values) runs it in place (getrfRows).
// Both are bitwise the seed's row-major loop (DESIGN §10).
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
	ld := luLD(m)
	if min(m, n) == 0 || ld*n > packMC*packKC { // the size of a scratch's pa
		return getrfRows(m, n, a, lda, ipiv, thresh, perturbed)
	}
	s := getScratch()
	c := s.pa[:ld*n]
	transpose(m, n, a, lda, c, ld)
	for j := 0; j < n; j++ {
		clear(c[j*ld+m : (j+1)*ld])
	}
	nperturbed, firstZero = getrfCols(m, n, c, ld, ipiv, thresh, perturbed)
	transpose(n, m, c, ld, a, lda)
	putScratch(s)
	return nperturbed, firstZero
}

// luLD is the leading dimension of the column-major copy of an m-row
// panel: the least ld ≥ m+3 with ld ≡ 4 (mod 8). The three spare rows
// let the vector kernel round every column's row range up to whole
// four-row vectors. The odd multiple of 32 bytes keeps two columns less
// than 128 apart from sharing a 4 KB offset, so a panel's columns do not
// compete for the same L1 sets as a power-of-two stride would.
func luLD(m int) int {
	return (m+6)/8*8 + 4
}

// getrfCols is DgetrfStatic on the column-major m×n matrix c with
// leading dimension ld ≥ luLD(m): the same steps in the same order,
// with the pivot search and the scaling on contiguous columns and the
// rank-1 update in luUpdate. Element (i, j) of the row-major panel is
// c[j*ld+i] here, and every element sees the row-major loop's
// operations on the same operands, so the factors are bitwise equal.
func getrfCols(m, n int, c []float64, ld int, ipiv []int, thresh float64, perturbed []int) (nperturbed, firstZero int) {
	firstZero = -1
	for j := 0; j < min(m, n); j++ {
		col := c[j*ld : (j+1)*ld]
		p, best := pivotRow(col, j, m)
		ipiv[j] = p
		if best == 0 && thresh <= 0 {
			if firstZero < 0 {
				firstZero = j
			}
			continue
		}
		if p != j {
			for t := 0; t < n; t++ {
				c[t*ld+j], c[t*ld+p] = c[t*ld+p], c[t*ld+j]
			}
		}
		piv := col[j]
		if thresh > 0 && math.Abs(piv) < thresh {
			if math.Signbit(piv) {
				piv = -thresh
			} else {
				piv = thresh
			}
			col[j] = piv
			perturbed[nperturbed] = j
			nperturbed++
		}
		luUpdate(m, n, c, ld, j, 1/piv)
	}
	return nperturbed, firstZero
}

// pivotRowGo is the portable pivot search: the row p ≥ j of column col
// (m rows) with the largest |col[p]|, the first of equals, and that
// magnitude — the row-major loop's search on a contiguous column.
func pivotRowGo(col []float64, j, m int) (p int, best float64) {
	p, best = j, math.Abs(col[j])
	for i := j + 1; i < m; i++ {
		if v := math.Abs(col[i]); v > best {
			best, p = v, i
		}
	}
	return p, best
}

// transposeGo sets dst[j·ldd+i] = src[i·lds+j] for i < rows, j < cols,
// outside the block i < r4, j < c4 that the assembly has copied.
func transposeGo(rows, cols, r4, c4 int, src []float64, lds int, dst []float64, ldd int) {
	for i := range rows {
		j0 := c4
		if i >= r4 {
			j0 = 0
		}
		for j := j0; j < cols; j++ {
			dst[j*ldd+i] = src[i*lds+j]
		}
	}
}

// luUpdateGo is the portable step of getrfCols: the row-major loop's
// step j on the column-major layout. It scales rows j+1..m−1 of column j
// by inv into the multipliers l and subtracts l·u(t) from each of those
// rows of every column t > j, u(t) being row j of column t, row by row,
// skipping a row whose multiplier is exactly zero.
func luUpdateGo(m, n int, c []float64, ld, j int, inv float64) {
	for i := j + 1; i < m; i++ {
		lij := c[j*ld+i] * inv
		c[j*ld+i] = lij
		if lij == 0 {
			continue
		}
		for t := j + 1; t < n; t++ {
			c[t*ld+i] -= float64(lij * c[t*ld+j])
		}
	}
}

// getrfRows is the row-major loop DgetrfStatic runs on a panel whose
// column-major copy would not fit the scratch (or an empty one).
func getrfRows(m, n int, a []float64, lda int, ipiv []int, thresh float64, perturbed []int) (nperturbed, firstZero int) {
	firstZero = -1
	for j := 0; j < min(m, n); j++ {
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
				arow[t] -= float64(lij * v)
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
