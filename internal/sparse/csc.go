package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSC is a compressed sparse column matrix. Column j occupies the index
// range [ColPtr[j], ColPtr[j+1]) of RowInd and Val. Row indices within a
// column are kept sorted by every constructor in this package; code that
// mutates RowInd directly must call SortIndices before handing the matrix
// to pattern algorithms.
type CSC struct {
	NRows, NCols int
	ColPtr       []int
	RowInd       []int
	Val          []float64
}

// NewCSC allocates an nrows×ncols CSC matrix with capacity for nnz
// entries. ColPtr is zeroed; the caller fills the structure.
func NewCSC(nrows, ncols, nnz int) *CSC {
	return &CSC{
		NRows:  nrows,
		NCols:  ncols,
		ColPtr: make([]int, ncols+1),
		RowInd: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return a.ColPtr[a.NCols] }

// Clone returns a deep copy of a.
func (a *CSC) Clone() *CSC {
	b := &CSC{
		NRows:  a.NRows,
		NCols:  a.NCols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowInd: append([]int(nil), a.RowInd...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// At returns the value at (i, j), or 0 if the entry is not stored.
// Requires sorted row indices; O(log nnz(col j)).
func (a *CSC) At(i, j int) float64 {
	if i < 0 || i >= a.NRows || j < 0 || j >= a.NCols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of %d×%d", i, j, a.NRows, a.NCols))
	}
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	k := lo + sort.SearchInts(a.RowInd[lo:hi], i)
	if k < hi && a.RowInd[k] == i {
		return a.Val[k]
	}
	return 0
}

// Has reports whether the entry (i, j) is structurally present.
func (a *CSC) Has(i, j int) bool {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	k := lo + sort.SearchInts(a.RowInd[lo:hi], i)
	return k < hi && a.RowInd[k] == i
}

// Col returns the row indices and values of column j as sub-slices of the
// backing arrays; the caller must not modify the index slice order.
func (a *CSC) Col(j int) ([]int, []float64) {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	return a.RowInd[lo:hi], a.Val[lo:hi]
}

// SortIndices sorts the row indices (and values) within each column.
func (a *CSC) SortIndices() {
	ps := &pairSorter{} // one sort.Interface value for all columns
	for j := 0; j < a.NCols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		if !sort.IntsAreSorted(a.RowInd[lo:hi]) {
			ps.ind, ps.val = a.RowInd[lo:hi], a.Val[lo:hi]
			sort.Sort(ps)
		}
	}
}

// sumDuplicates merges adjacent equal row indices within each column,
// summing their values. Requires sorted indices.
func (a *CSC) sumDuplicates() {
	out := 0
	colPtr := make([]int, a.NCols+1)
	for j := 0; j < a.NCols; j++ {
		colPtr[j] = out
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		for k := lo; k < hi; {
			r := a.RowInd[k]
			v := a.Val[k]
			k++
			for k < hi && a.RowInd[k] == r {
				v += a.Val[k]
				k++
			}
			a.RowInd[out] = r
			a.Val[out] = v
			out++
		}
	}
	colPtr[a.NCols] = out
	a.ColPtr = colPtr
	a.RowInd = a.RowInd[:out]
	a.Val = a.Val[:out]
}

// Transpose returns Aᵀ in CSC form (equivalently, A in CSR form viewed as
// CSC). Runs in O(nnz + n).
func (a *CSC) Transpose() *CSC {
	t := NewCSC(a.NCols, a.NRows, a.NNZ())
	count := make([]int, a.NRows+1)
	for _, i := range a.RowInd {
		count[i+1]++
	}
	for i := 0; i < a.NRows; i++ {
		count[i+1] += count[i]
	}
	copy(t.ColPtr, count)
	next := make([]int, a.NRows)
	copy(next, count[:a.NRows])
	for j := 0; j < a.NCols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowInd[k]
			p := next[i]
			t.RowInd[p] = j
			t.Val[p] = a.Val[k]
			next[i]++
		}
	}
	return t
}

// MulVec computes y = A·x. y must have length NRows; x length NCols.
func (a *CSC) MulVec(x, y []float64) {
	if len(x) != a.NCols || len(y) != a.NRows {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < a.NCols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			y[a.RowInd[k]] += a.Val[k] * xj
		}
	}
}

// MulVecT computes y = Aᵀ·x. y must have length NCols; x length NRows.
func (a *CSC) MulVecT(x, y []float64) {
	if len(x) != a.NRows || len(y) != a.NCols {
		panic("sparse: MulVecT dimension mismatch")
	}
	for j := 0; j < a.NCols; j++ {
		var s float64
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			s += a.Val[k] * x[a.RowInd[k]]
		}
		y[j] = s
	}
}

// PermuteRows returns P·A where row i of A becomes row p[i] of the result.
func (a *CSC) PermuteRows(p Perm) *CSC {
	if err := CheckPerm(p, a.NRows); err != nil {
		panic(fmt.Sprintf("sparse: PermuteRows: %v", err))
	}
	b := a.Clone()
	for k, i := range a.RowInd {
		b.RowInd[k] = p[i]
	}
	b.SortIndices()
	return b
}

// PermuteCols returns A·Qᵀ where column j of A becomes column q[j] of the
// result.
func (a *CSC) PermuteCols(q Perm) *CSC {
	if err := CheckPerm(q, a.NCols); err != nil {
		panic(fmt.Sprintf("sparse: PermuteCols: %v", err))
	}
	b := NewCSC(a.NRows, a.NCols, a.NNZ())
	// Column q[j] of b has the length of column j of a.
	for j := 0; j < a.NCols; j++ {
		b.ColPtr[q[j]+1] = a.ColPtr[j+1] - a.ColPtr[j]
	}
	for j := 0; j < a.NCols; j++ {
		b.ColPtr[j+1] += b.ColPtr[j]
	}
	for j := 0; j < a.NCols; j++ {
		dst := b.ColPtr[q[j]]
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		copy(b.RowInd[dst:dst+hi-lo], a.RowInd[lo:hi])
		copy(b.Val[dst:dst+hi-lo], a.Val[lo:hi])
	}
	return b
}

// Permute returns P·A·Qᵀ, permuting rows by p and columns by q, in one
// pass: column j lands at q[j] with its rows relabelled, then sorted.
func (a *CSC) Permute(p, q Perm) *CSC {
	if err := CheckPerm(p, a.NRows); err != nil {
		panic(fmt.Sprintf("sparse: Permute: %v", err))
	}
	b := a.PermuteCols(q)
	for k, i := range b.RowInd {
		b.RowInd[k] = p[i]
	}
	b.SortIndices()
	return b
}

// PermuteSym returns P·A·Pᵀ, the symmetric permutation of a square matrix.
func (a *CSC) PermuteSym(p Perm) *CSC {
	if a.NRows != a.NCols {
		panic("sparse: PermuteSym on non-square matrix")
	}
	return a.Permute(p, p)
}

// HasZeroFreeDiagonal reports whether every diagonal entry of the square
// matrix is structurally present.
func (a *CSC) HasZeroFreeDiagonal() bool {
	if a.NRows != a.NCols {
		return false
	}
	for j := 0; j < a.NCols; j++ {
		if !a.Has(j, j) {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute value of any stored entry.
func (a *CSC) MaxAbs() float64 {
	m := 0.0
	for _, v := range a.Val {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// Norm1 returns the 1-norm (maximum absolute column sum).
func (a *CSC) Norm1() float64 {
	m := 0.0
	for j := 0; j < a.NCols; j++ {
		var s float64
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			s += math.Abs(a.Val[k])
		}
		if s > m {
			m = s
		}
	}
	return m
}

// NormInf returns the infinity norm (maximum absolute row sum).
func (a *CSC) NormInf() float64 {
	sums := make([]float64, a.NRows)
	for k, i := range a.RowInd {
		sums[i] += math.Abs(a.Val[k])
	}
	m := 0.0
	for _, s := range sums {
		if s > m {
			m = s
		}
	}
	return m
}

// ToDense returns the matrix as a dense row-major slice of length
// NRows×NCols. Intended for tests and tiny examples.
func (a *CSC) ToDense() []float64 {
	d := make([]float64, a.NRows*a.NCols)
	for j := 0; j < a.NCols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			d[a.RowInd[k]*a.NCols+j] = a.Val[k]
		}
	}
	return d
}

// FromDense builds a CSC matrix from a dense row-major slice, keeping
// entries with absolute value above tol (tol = 0 keeps exact nonzeros).
func FromDense(d []float64, nrows, ncols int, tol float64) *CSC {
	if len(d) != nrows*ncols {
		panic("sparse: FromDense dimension mismatch")
	}
	t := NewTriplet(nrows, ncols)
	for i := 0; i < nrows; i++ {
		for j := 0; j < ncols; j++ {
			if v := d[i*ncols+j]; math.Abs(v) > tol || (tol == 0 && v != 0) {
				t.Add(i, j, v)
			}
		}
	}
	return t.ToCSC()
}

// Equal reports whether a and b have identical dimensions, structure and
// values.
func (a *CSC) Equal(b *CSC) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || a.NNZ() != b.NNZ() {
		return false
	}
	for j := 0; j <= a.NCols; j++ {
		if a.ColPtr[j] != b.ColPtr[j] {
			return false
		}
	}
	for k := range a.RowInd {
		if a.RowInd[k] != b.RowInd[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// SamePattern reports whether a and b have the same sparsity structure.
func (a *CSC) SamePattern(b *CSC) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || a.NNZ() != b.NNZ() {
		return false
	}
	for j := 0; j <= a.NCols; j++ {
		if a.ColPtr[j] != b.ColPtr[j] {
			return false
		}
	}
	for k := range a.RowInd {
		if a.RowInd[k] != b.RowInd[k] {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices render as a
// summary line.
func (a *CSC) String() string {
	if a.NRows > 16 || a.NCols > 16 {
		return fmt.Sprintf("CSC{%d×%d, nnz=%d}", a.NRows, a.NCols, a.NNZ())
	}
	s := ""
	d := a.ToDense()
	for i := 0; i < a.NRows; i++ {
		for j := 0; j < a.NCols; j++ {
			s += fmt.Sprintf("%8.3g ", d[i*a.NCols+j])
		}
		s += "\n"
	}
	return s
}
