package symbolic

import "repro/internal/sparse"

// factorNaive is the O(n²)-memory reference implementation of the static
// symbolic factorization used to validate Factor in tests: dense boolean
// row structures, direct row-union at each step.
func factorNaive(a *sparse.CSC) *Result {
	n := a.NCols
	rows := make([][]bool, n)
	d := a.ToDense()
	for i := 0; i < n; i++ {
		rows[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			if d[i*n+j] != 0 {
				rows[i][j] = true
			}
		}
	}
	lCols := make([][]int, n)
	uRows := make([][]int, n)
	for k := 0; k < n; k++ {
		union := make([]bool, n)
		var cand []int
		for i := k; i < n; i++ {
			if rows[i][k] {
				cand = append(cand, i)
				for j := k; j < n; j++ {
					if rows[i][j] {
						union[j] = true
					}
				}
			}
		}
		for _, i := range cand {
			if i > k {
				lCols[k] = append(lCols[k], i)
			}
			for j := k; j < n; j++ {
				rows[i][j] = union[j]
			}
		}
		for j := k; j < n; j++ {
			if union[j] {
				uRows[k] = append(uRows[k], j)
			}
		}
	}
	// Pack into the same shapes as Factor.
	l := &sparse.Pattern{NRows: n, NCols: n, ColPtr: make([]int, n+1)}
	for k := 0; k < n; k++ {
		l.ColPtr[k+1] = l.ColPtr[k] + 1 + len(lCols[k])
	}
	l.RowInd = make([]int, l.ColPtr[n])
	for k := 0; k < n; k++ {
		p := l.ColPtr[k]
		l.RowInd[p] = k
		copy(l.RowInd[p+1:], lCols[k])
	}
	ur := &sparse.Pattern{NRows: n, NCols: n, ColPtr: make([]int, n+1)}
	for k := 0; k < n; k++ {
		ur.ColPtr[k+1] = ur.ColPtr[k] + len(uRows[k])
	}
	ur.RowInd = make([]int, ur.ColPtr[n])
	for k := 0; k < n; k++ {
		copy(ur.RowInd[ur.ColPtr[k]:], uRows[k])
	}
	return &Result{N: n, L: l, URows: ur}
}
