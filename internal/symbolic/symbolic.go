// Package symbolic implements the static symbolic factorization of
// George and Ng ['87] as used by S*/S+: it computes structures L̄ and Ū
// that contain the nonzeros of the L and U factors of PA for *every* row
// permutation P that partial pivoting could produce. The LU elimination
// forest, supernode partition and task graph are all defined on Ā = L̄ +
// Ū − I.
//
// The algorithm is symbolic Gaussian elimination where, at step k, the
// structures of all candidate pivot rows (rows i ≥ k whose current
// structure contains column k) are replaced by their union. Because the
// candidate rows of a step end up with identical structures, rows are
// kept in groups that only ever merge, which makes the whole computation
// run in roughly O(|Ā|) time.
//
// The group-merging loop lives in a reusable engine (engine.go) that can
// run over any subset of the columns: Factor drives it over all columns
// serially, and FactorParallel (parallel.go) runs one engine per
// independent column-etree subtree and a final engine over the shared
// top region. Both produce identical Results: the per-column outputs of
// the elimination are set functions of the matrix pattern, independent
// of the merge schedule, and the engine sorts them before packing.
package symbolic

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Result is the static symbolic factorization of a matrix.
type Result struct {
	N int
	// L is the structure of L̄: lower triangular including the unit
	// diagonal, stored column-wise (Col(k) = sorted row indices ≥ k).
	L *sparse.Pattern
	// URows is the structure of Ū: upper triangular including the
	// diagonal, stored row-wise (URows.Col(i) = sorted column indices of
	// row i of Ū, all ≥ i). The elimination writes Ū by rows and the LU
	// eforest is defined on them; it is the only view a Result keeps
	// (UCols derives the other): a column view kept beside it would add
	// 8 bytes per entry of Ū, 2.6 MB on the block closure of sherman3.
	URows *sparse.Pattern
}

// UCols returns the structure of Ū stored column-wise (Col(j) = sorted
// row indices ≤ j), transposed from URows on every call. Its readers
// are checks, tools and block-level layouts that run once per analysis.
func (r *Result) UCols() *sparse.Pattern { return r.URows.Transpose() }

// NNZ returns |Ā| = nnz(L̄) + nnz(Ū) − n (the diagonal is shared).
func (r *Result) NNZ() int {
	return r.L.NNZ() + r.URows.NNZ() - r.N
}

// FillRatio returns |Ā| / nnzA, the factor-entry ratio reported in the
// paper's Table 1.
func (r *Result) FillRatio(nnzA int) float64 {
	return float64(r.NNZ()) / float64(nnzA)
}

// FromPattern splits a square pattern with sorted columns and a full
// diagonal into the L / URows views of a Result without eliminating
// anything. It is how a structure that is to be used as it stands — the
// supernode block pattern of a static factorization — is handed to code
// written against a Result.
func FromPattern(p *sparse.Pattern) *Result {
	n := p.NCols
	l := &sparse.Pattern{NRows: n, NCols: n, ColPtr: make([]int, n+1)}
	u := &sparse.Pattern{NRows: n, NCols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		col := p.Col(j)
		d := sort.SearchInts(col, j)
		if d == len(col) || col[d] != j {
			panic(fmt.Sprintf("symbolic: FromPattern: diagonal entry %d missing", j))
		}
		u.ColPtr[j+1], l.ColPtr[j+1] = u.ColPtr[j]+d+1, l.ColPtr[j]+len(col)-d
	}
	u.RowInd, l.RowInd = make([]int, u.ColPtr[n]), make([]int, l.ColPtr[n])
	for j := 0; j < n; j++ {
		col, d := p.Col(j), len(u.Col(j))-1
		copy(u.Col(j), col[:d+1])
		copy(l.Col(j), col[d:])
	}
	return &Result{N: n, L: l, URows: u.Transpose()}
}

// checkSquareZeroFree validates the Factor preconditions.
func checkSquareZeroFree(p *sparse.Pattern) error {
	if p.NRows != p.NCols {
		return fmt.Errorf("symbolic: matrix must be square, got %d×%d", p.NRows, p.NCols)
	}
	for j := 0; j < p.NCols; j++ {
		if !p.Has(j, j) {
			return fmt.Errorf("symbolic: matrix diagonal has structural zeros; apply a maximum transversal first")
		}
	}
	return nil
}

// Factor computes the static symbolic factorization of a square matrix
// with a zero-free diagonal (run the transversal first if needed).
func Factor(a *sparse.CSC) (*Result, error) {
	return FactorPattern(sparse.PatternView(a))
}

// FactorPattern is Factor on a bare structure (sorted columns): what
// the closure of a block pattern needs, which has no values to carry.
func FactorPattern(p *sparse.Pattern) (*Result, error) {
	if err := checkSquareZeroFree(p); err != nil {
		return nil, err
	}
	n := p.NCols
	rows := p.Transpose() // Col(i) = row i

	out := newColumns(n)
	e := newEngine(n, out, n)
	for i := 0; i < n; i++ {
		if err := e.seedRow(int32(i), rows.Col(i)); err != nil {
			return nil, err
		}
	}
	if err := e.run(nil); err != nil { // nil steps = all columns 0..n-1
		return nil, err
	}
	return out.pack(), nil
}
