// Package sparselu is a parallel sparse LU factorization library for
// general unsymmetric matrices, reproducing Cosnard & Grigori, "Using
// Postordering and Static Symbolic Factorization for Parallel Sparse
// LU" (IPPS 2000).
//
// The pipeline is the paper's: a maximum transversal produces a
// zero-free diagonal, minimum degree on AᵀA reduces fill, a static
// symbolic factorization (George & Ng) computes a structure valid for
// every partial-pivoting row exchange, the LU elimination forest is
// postordered to enlarge supernodes and expose a block-upper-triangular
// form, L/U supernode partitioning with amalgamation yields dense
// blocks, and the numeric factorization runs BLAS-3 tasks in parallel
// under the eforest-guided task dependence graph with the least
// necessary dependences.
//
// # Quick start
//
//	b := sparselu.NewBuilder(3)
//	b.Add(0, 0, 4); b.Add(0, 1, 1)
//	b.Add(1, 0, 2); b.Add(1, 1, 5); b.Add(1, 2, 1)
//	b.Add(2, 1, 3); b.Add(2, 2, 6)
//	m, _ := b.Build()
//	f, _ := sparselu.Factorize(m, nil)
//	x, _ := f.Solve([]float64{1, 2, 3})
//
// The zero Options value is not useful; pass nil for the paper's
// defaults (minimum degree, postordering on, eforest task graph).
package sparselu

import (
	"fmt"
	"io"

	"repro/internal/sparse"
)

// Matrix is an immutable square sparse matrix in compressed sparse
// column form.
type Matrix struct {
	a *sparse.CSC
}

// Builder assembles a sparse matrix from (row, column, value) triplets.
// Duplicate entries are summed. A negative order or an index outside the
// matrix does not panic: Build returns the first such mistake.
type Builder struct {
	t   *sparse.Triplet
	err error
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	if n < 0 {
		return &Builder{t: sparse.NewTriplet(0, 0), err: fmt.Errorf("sparselu: negative order %d", n)}
	}
	return &Builder{t: sparse.NewTriplet(n, n)}
}

// Add appends the entry (i, j, v). Indices are 0-based. Explicit zeros
// are kept in the structure. An index outside the matrix is reported by
// Build.
func (b *Builder) Add(i, j int, v float64) {
	if b.err != nil {
		return
	}
	if n := b.t.NRows; i < 0 || i >= n || j < 0 || j >= n {
		b.err = fmt.Errorf("sparselu: entry (%d,%d) outside the %d×%d matrix", i, j, n, n)
		return
	}
	b.t.Add(i, j, v)
}

// Build finalizes the matrix, or returns the first mistake made while
// building it.
func (b *Builder) Build() (*Matrix, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &Matrix{a: b.t.ToCSC()}, nil
}

// ReadMatrixMarket parses a MatrixMarket coordinate stream (real,
// integer or pattern; general, symmetric or skew-symmetric).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	a, err := sparse.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("sparselu: matrix must be square, got %d×%d", a.NRows, a.NCols)
	}
	return &Matrix{a: a}, nil
}

// WriteMatrixMarket writes the matrix in MatrixMarket coordinate form.
func (m *Matrix) WriteMatrixMarket(w io.Writer) error {
	return sparse.WriteMatrixMarket(w, m.a)
}

// Order returns the dimension n of the n×n matrix.
func (m *Matrix) Order() int { return m.a.NCols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return m.a.NNZ() }

// At returns the entry (i, j), or 0 when it is not stored.
func (m *Matrix) At(i, j int) float64 { return m.a.At(i, j) }

// MulVec returns A·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	y := make([]float64, m.a.NRows)
	m.a.MulVec(x, y)
	return y
}

// Scale returns a copy of the matrix with every entry multiplied by s.
func (m *Matrix) Scale(s float64) *Matrix {
	a := m.a.Clone()
	for k := range a.Val {
		a.Val[k] *= s
	}
	return &Matrix{a: a}
}

// CSC exposes the underlying storage to sibling packages inside this
// module. External users should treat Matrix as opaque.
func (m *Matrix) CSC() *sparse.CSC { return m.a }

// WrapCSC wraps an existing CSC matrix without copying; intended for the
// generators and command-line tools inside this module.
func WrapCSC(a *sparse.CSC) *Matrix { return &Matrix{a: a} }
