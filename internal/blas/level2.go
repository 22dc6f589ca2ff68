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

// DgemvRows is Dgemv(false, 1, n, −1, A[p·lda:], lda, x, 1, y[to[p]:])
// on each row p < len(to) of A: y[to[p]] ← −A[p,:]·x + y[to[p]], bit for
// bit, four rows at a time. The targets may be any rows of y, in any
// order; none may index x's storage.
func DgemvRows(n int, a []float64, lda int, to []int32, x, y []float64) {
	x = x[:n]
	p := 0
	for ; p+4 <= len(to); p += 4 {
		g := to[p : p+4 : p+4]
		s0, s1, s2, s3 := dot4(a[p*lda:][:n], a[(p+1)*lda:][:n], a[(p+2)*lda:][:n], a[(p+3)*lda:][:n], x)
		y[g[0]] = -s0 + y[g[0]]
		y[g[1]] = -s1 + y[g[1]]
		y[g[2]] = -s2 + y[g[2]]
		y[g[3]] = -s3 + y[g[3]]
	}
	for ; p < len(to); p++ {
		row := a[p*lda:][:n]
		var s float64
		for j, v := range x {
			s += float64(row[j] * v)
		}
		y[to[p]] = -s + y[to[p]]
	}
}

// dot4 returns the dot products of four rows with x, each summed from +0
// in ascending index order into its own accumulator, so the four add
// chains run side by side.
func dot4(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for j, v := range x {
		s0 += float64(r0[j] * v)
		s1 += float64(r1[j] * v)
		s2 += float64(r2[j] * v)
		s3 += float64(r3[j] * v)
	}
	return s0, s1, s2, s3
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
