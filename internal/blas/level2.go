package blas

// Dgemv computes y ← α·op(A)·x + β·y for a dense m×n row-major matrix A
// with leading dimension lda. trans selects op(A) = A (false) or Aᵀ
// (true). Vector lengths must match op(A).
func Dgemv(trans bool, m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	if !trans {
		for i := 0; i < m; i++ {
			row := a[i*lda : i*lda+n]
			var s float64
			for j, v := range row {
				s += float64(v * x[j])
			}
			y[i] = float64(alpha*s) + float64(beta*y[i])
		}
		return
	}
	for j := 0; j < n; j++ {
		y[j] *= beta
	}
	for i := 0; i < m; i++ {
		xi := alpha * x[i]
		if xi == 0 {
			continue
		}
		row := a[i*lda : i*lda+n]
		for j, v := range row {
			y[j] += float64(xi * v)
		}
	}
}

// Dtrsvt solves Tᵀ·x = b in place for a dense n×n triangular matrix T
// stored row-major (so a lower-triangular T yields an upper-triangular
// solve and vice versa). Used by the transpose solves.
func Dtrsvt(lower, unit bool, n int, t []float64, ldt int, x []float64) {
	if lower {
		// Tᵀ is upper triangular: backward substitution reading T's
		// columns, i.e. strided rows of the row-major storage.
		for i := n - 1; i >= 0; i-- {
			s := x[i]
			for j := i + 1; j < n; j++ {
				s -= float64(t[j*ldt+i] * x[j])
			}
			if !unit {
				s /= t[i*ldt+i]
			}
			x[i] = s
		}
		return
	}
	// Tᵀ is lower triangular: forward substitution.
	for i := 0; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= float64(t[j*ldt+i] * x[j])
		}
		if !unit {
			s /= t[i*ldt+i]
		}
		x[i] = s
	}
}

// Dtrsv solves op(T)·x = b in place for a dense n×n triangular matrix T.
// lower selects the triangle, unit selects an implicit unit diagonal.
// Only the non-transposed op is provided (that is all the factorization
// needs); Dtrsvt provides the transposed op.
func Dtrsv(lower, unit bool, n int, t []float64, ldt int, x []float64) {
	if lower {
		for i := 0; i < n; i++ {
			s := x[i]
			row := t[i*ldt : i*ldt+i]
			for j, v := range row {
				s -= float64(v * x[j])
			}
			if !unit {
				s /= t[i*ldt+i]
			}
			x[i] = s
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := t[i*ldt+i+1 : i*ldt+n]
		for j, v := range row {
			s -= float64(v * x[i+1+j])
		}
		if !unit {
			s /= t[i*ldt+i]
		}
		x[i] = s
	}
}
