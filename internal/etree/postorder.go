package etree

import (
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// Postordering bundles the postorder permutation of an LU eforest with
// the relabeled symbolic factorization and forest. Theorem 3 of the
// paper guarantees that relabeling *is* the static symbolic
// factorization of the permuted matrix, so nothing needs recomputing.
type Postordering struct {
	// Perm is the postorder permutation (perm[old] = new) to apply
	// symmetrically to the matrix.
	Perm sparse.Perm
	// Sym is the symbolic factorization in the new labels.
	Sym *symbolic.Result
	// Forest is the LU eforest in the new labels; it satisfies
	// IsPostOrdered.
	Forest *Forest
}

// PostorderSymbolic computes the postordering of the LU eforest of sym
// and relabels both the symbolic structures and the forest accordingly.
// Analyze does not relabel: it reads sym through the inverse of the
// postorder (supernode.StrictPartitionOrdered and its siblings), and
// builds the relabeled structure with PermuteSymbolic only for
// Options.Verify.
func PostorderSymbolic(sym *symbolic.Result, f *Forest) *Postordering {
	perm := f.PostOrder()
	return &Postordering{
		Perm:   perm,
		Sym:    PermuteSymbolic(sym, perm),
		Forest: f.Relabel(perm),
	}
}

// PermuteSymbolic relabels a static symbolic factorization by a
// symmetric permutation. The permutation must keep L̄ lower and Ū upper
// triangular (any postorder of the LU eforest does, per Section 3).
func PermuteSymbolic(sym *symbolic.Result, perm sparse.Perm) *symbolic.Result {
	return &symbolic.Result{N: sym.N, L: sym.L.PermuteSym(perm), URows: sym.URows.PermuteSym(perm)}
}

// BlockUpperTriangular verifies that the full structure Ā = L̄ + Ū − I is
// block upper triangular with respect to the given contiguous diagonal
// ranges: no structural entry (i, j) with i in a later range than j.
// Returns the first offending entry, or (-1, -1) if the decomposition
// holds.
func BlockUpperTriangular(sym *symbolic.Result, ranges [][2]int) (int, int) {
	n := sym.N
	block := make([]int, n)
	for b, r := range ranges {
		for v := r[0]; v <= r[1]; v++ {
			block[v] = b
		}
	}
	u := sym.UCols()
	for j := 0; j < n; j++ {
		for _, i := range sym.L.Col(j) {
			if block[i] > block[j] {
				return i, j
			}
		}
		for _, i := range u.Col(j) {
			if block[i] > block[j] {
				return i, j
			}
		}
	}
	return -1, -1
}
