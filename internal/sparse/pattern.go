package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Pattern is the sparsity structure of a matrix: CSC without values.
type Pattern struct {
	NRows, NCols int
	ColPtr       []int
	RowInd       []int
}

// PatternOf extracts the structure of a.
func PatternOf(a *CSC) *Pattern {
	return &Pattern{
		NRows:  a.NRows,
		NCols:  a.NCols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowInd: append([]int(nil), a.RowInd...),
	}
}

// PatternView is the structure of a sharing a's index arrays, for
// callers that only read it or own a outright.
func PatternView(a *CSC) *Pattern {
	return &Pattern{NRows: a.NRows, NCols: a.NCols, ColPtr: a.ColPtr, RowInd: a.RowInd}
}

// NNZ returns the number of structural entries.
func (p *Pattern) NNZ() int { return p.ColPtr[p.NCols] }

// Col returns the row indices of column j.
func (p *Pattern) Col(j int) []int {
	return p.RowInd[p.ColPtr[j]:p.ColPtr[j+1]]
}

// Has reports whether (i, j) is a structural entry. Requires sorted rows.
func (p *Pattern) Has(i, j int) bool {
	col := p.Col(j)
	k := sort.SearchInts(col, i)
	return k < len(col) && col[k] == i
}

// Transpose returns the structure of the transpose.
func (p *Pattern) Transpose() *Pattern {
	t := &Pattern{
		NRows:  p.NCols,
		NCols:  p.NRows,
		ColPtr: make([]int, p.NRows+1),
		RowInd: make([]int, p.NNZ()),
	}
	for _, i := range p.RowInd {
		t.ColPtr[i+1]++
	}
	// ColPtr[i+1] holds the start of row i and serves as its fill
	// cursor: when every row is full it has advanced to the start of row
	// i+1, which is where it belongs.
	sum := 0
	for i := 1; i <= p.NRows; i++ {
		sum, t.ColPtr[i] = sum+t.ColPtr[i], sum
	}
	for j := 0; j < p.NCols; j++ {
		for _, i := range p.Col(j) {
			t.RowInd[t.ColPtr[i+1]] = j
			t.ColPtr[i+1]++
		}
	}
	return t
}

// ToCSC returns a CSC matrix with this structure and all values set to v.
func (p *Pattern) ToCSC(v float64) *CSC {
	a := &CSC{
		NRows:  p.NRows,
		NCols:  p.NCols,
		ColPtr: append([]int(nil), p.ColPtr...),
		RowInd: append([]int(nil), p.RowInd...),
		Val:    make([]float64, p.NNZ()),
	}
	for k := range a.Val {
		a.Val[k] = v
	}
	return a
}

// PermuteSym returns the pattern relabeled symmetrically: entry (i, j)
// becomes (perm[i], perm[j]). Row indices in the result are sorted. A
// column is written in its old order and sorted only if the relabelling
// left it out of order: the permutations this is called with (eforest
// postorders) keep most columns ascending, and a column-local fix-up
// stays in cache where bucketing all entries by row and column does not.
func (p *Pattern) PermuteSym(perm Perm) *Pattern {
	if p.NRows != p.NCols {
		panic("sparse: Pattern.PermuteSym on non-square pattern")
	}
	n := p.NCols
	if err := CheckPerm(perm, n); err != nil {
		panic(fmt.Sprintf("sparse: Pattern.PermuteSym: %v", err))
	}
	out := &Pattern{NRows: n, NCols: n, ColPtr: make([]int, n+1), RowInd: make([]int, p.NNZ())}
	for j := 0; j < n; j++ {
		out.ColPtr[perm[j]+1] = p.ColPtr[j+1] - p.ColPtr[j]
	}
	for j := 0; j < n; j++ {
		out.ColPtr[j+1] += out.ColPtr[j]
	}
	for j := 0; j < n; j++ {
		dst := out.Col(perm[j])
		ascending := true
		for t, i := range p.Col(j) {
			dst[t] = perm[i]
			ascending = ascending && (t == 0 || dst[t-1] < dst[t])
		}
		if !ascending {
			slices.Sort(dst)
		}
	}
	return out
}

// ATAPattern computes the sparsity structure of AᵀA for an m×n matrix A.
// Entry (i, j) of AᵀA is structurally nonzero iff columns i and j of A
// share a row. Runs in O(Σ_r nnz(row r)²) time, which is fine for the
// benchmark suite (rows are short); a dense row would make this
// quadratic.
func ATAPattern(a *CSC) *Pattern {
	n := a.NCols
	at := PatternView(a).Transpose() // rows of A as "columns"
	marker := make([]int, n)
	for i := range marker {
		marker[i] = -1
	}
	// Σ_r |row r|² bounds the entries before deduplication; capped, so
	// that many near-identical rows cannot inflate the allocation, it
	// replaces the append-growth copies for the short rows of the suite.
	bound := 0
	for r := 0; r < at.NCols; r++ {
		bound += len(at.Col(r)) * len(at.Col(r))
	}
	colPtr := make([]int, n+1)
	rowInd := make([]int, 0, min(bound, 16*a.NNZ()))
	// For column j of AᵀA: union of rows(A) structure over rows r with
	// a_rj ≠ 0, i.e. all columns i such that ∃r: a_ri ≠ 0 and a_rj ≠ 0.
	for j := 0; j < n; j++ {
		start := len(rowInd)
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			r := a.RowInd[k]
			for kk := at.ColPtr[r]; kk < at.ColPtr[r+1]; kk++ {
				i := at.RowInd[kk]
				if marker[i] != j {
					marker[i] = j
					rowInd = append(rowInd, i)
				}
			}
		}
		sort.Ints(rowInd[start:])
		colPtr[j+1] = len(rowInd)
	}
	return &Pattern{NRows: n, NCols: n, ColPtr: colPtr, RowInd: rowInd}
}

// SymmetrizePattern returns the structure of A + Aᵀ for a square matrix.
func SymmetrizePattern(a *CSC) *Pattern {
	if a.NRows != a.NCols {
		panic("sparse: SymmetrizePattern on non-square matrix")
	}
	n := a.NCols
	p := PatternOf(a)
	t := p.Transpose()
	colPtr := make([]int, n+1)
	var rowInd []int
	for j := 0; j < n; j++ {
		c1 := p.Col(j)
		c2 := t.Col(j)
		// merge two sorted lists, deduplicating
		i1, i2 := 0, 0
		for i1 < len(c1) || i2 < len(c2) {
			switch {
			case i2 >= len(c2) || (i1 < len(c1) && c1[i1] < c2[i2]):
				rowInd = append(rowInd, c1[i1])
				i1++
			case i1 >= len(c1) || c2[i2] < c1[i1]:
				rowInd = append(rowInd, c2[i2])
				i2++
			default: // equal
				rowInd = append(rowInd, c1[i1])
				i1++
				i2++
			}
		}
		colPtr[j+1] = len(rowInd)
	}
	return &Pattern{NRows: n, NCols: n, ColPtr: colPtr, RowInd: rowInd}
}

// PatternContains reports whether every structural entry of inner is also
// a structural entry of outer. Both must have sorted row indices.
func PatternContains(outer, inner *Pattern) bool {
	if outer.NRows != inner.NRows || outer.NCols != inner.NCols {
		return false
	}
	for j := 0; j < inner.NCols; j++ {
		oc := outer.Col(j)
		ic := inner.Col(j)
		oi := 0
		for _, r := range ic {
			for oi < len(oc) && oc[oi] < r {
				oi++
			}
			if oi >= len(oc) || oc[oi] != r {
				return false
			}
		}
	}
	return true
}

// UnionSorted merges two sorted, duplicate-free int slices into a new
// sorted, duplicate-free slice.
func UnionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
