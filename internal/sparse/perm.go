// Package sparse provides the sparse-matrix substrate used by the parallel
// sparse LU factorization: triplet (coordinate) assembly, compressed
// sparse column (CSC) storage (row-major views are obtained by
// transposition), pattern algebra (transpose, AᵀA pattern, pattern
// union), permutations, sparse matrix-vector products and Matrix Market
// I/O.
//
// # Conventions
//
// Indices are 0-based throughout. A permutation is represented by a Perm
// p with the scatter convention: p[old] = new, i.e. the element at
// position old in the original ordering moves to position new in the
// permuted ordering. With P the permutation matrix such that
// (Px)[p[i]] = x[i], PermuteRows(A, p) computes P·A and PermuteCols(A, q)
// computes A·Qᵀ where (Qx)[q[j]] = x[j].
package sparse

import (
	"fmt"
	"math/rand"
)

// Perm is a permutation of {0, …, n−1} in scatter convention:
// p[old] = new.
type Perm []int

// Identity returns the identity permutation of length n.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// RandomPerm returns a uniformly random permutation of length n drawn
// from rng.
func RandomPerm(n int, rng *rand.Rand) Perm {
	p := make(Perm, n)
	for i, v := range rng.Perm(n) {
		p[i] = v
	}
	return p
}

// Len returns the length of the permutation.
func (p Perm) Len() int { return len(p) }

// Inverse returns the inverse permutation q with q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v] = i
	}
	return q
}

// Compose returns the permutation r = q∘p that first applies p, then q:
// r[i] = q[p[i]].
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic("sparse: Compose on permutations of different lengths")
	}
	r := make(Perm, len(p))
	for i, v := range p {
		r[i] = q[v]
	}
	return r
}

// Clone returns a copy of p.
func (p Perm) Clone() Perm {
	q := make(Perm, len(p))
	copy(q, p)
	return q
}

// CheckPerm returns an error describing the first defect found in p, or
// nil if p is a valid permutation of {0, …, n−1}.
func CheckPerm(p Perm, n int) error {
	if len(p) != n {
		return fmt.Errorf("sparse: permutation has length %d, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for i, v := range p {
		if v < 0 || v >= n {
			return fmt.Errorf("sparse: p[%d] = %d out of range [0,%d)", i, v, n)
		}
		if seen[v] {
			return fmt.Errorf("sparse: value %d appears twice in permutation", v)
		}
		seen[v] = true
	}
	return nil
}
