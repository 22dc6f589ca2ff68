// Package supernode implements the L/U supernode partitioning of S+/S*
// (Section 3 of the paper): consecutive columns whose L̄ columns share
// one structure below the diagonal block and whose Ū rows share one
// structure right of it are grouped, the same partition is applied to
// the rows, and small supernodes are amalgamated. The result is an N×N
// submatrix blocking where every structurally nonzero block is handled
// as a dense matrix by the numeric factorization (S+ deliberately
// computes on the explicit zeros inside blocks).
package supernode

import (
	"slices"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// Partition groups the n columns (and rows) of a matrix into N
// consecutive blocks.
type Partition struct {
	N int // matrix dimension
	// BlockStart has length NumBlocks+1; block K covers columns
	// [BlockStart[K], BlockStart[K+1]).
	BlockStart []int
	// ColToBlock maps a column to its block index.
	ColToBlock []int
}

// NumBlocks returns the number of supernode blocks. The zero-value
// partition (no BlockStart) has zero blocks.
func (p *Partition) NumBlocks() int {
	if len(p.BlockStart) == 0 {
		return 0
	}
	return len(p.BlockStart) - 1
}

// Size returns the width of block k.
func (p *Partition) Size(k int) int { return p.BlockStart[k+1] - p.BlockStart[k] }

// Range returns the half-open column range of block k.
func (p *Partition) Range(k int) (lo, hi int) { return p.BlockStart[k], p.BlockStart[k+1] }

// MaxSize returns the width of the widest block.
func (p *Partition) MaxSize() int {
	m := 0
	for k := 0; k < p.NumBlocks(); k++ {
		if s := p.Size(k); s > m {
			m = s
		}
	}
	return m
}

// AvgSize returns the mean block width, 0 for an empty partition.
func (p *Partition) AvgSize() float64 {
	if p.NumBlocks() <= 0 {
		return 0
	}
	return float64(p.N) / float64(p.NumBlocks())
}

func fromStarts(n int, starts []int) *Partition {
	p := &Partition{N: n, BlockStart: starts, ColToBlock: make([]int, n)}
	for k := 0; k+1 < len(starts); k++ {
		for c := starts[k]; c < starts[k+1]; c++ {
			p.ColToBlock[c] = k
		}
	}
	return p
}

// Trivial returns the partition with one column per block.
func Trivial(n int) *Partition {
	starts := make([]int, n+1)
	for i := range starts {
		starts[i] = i
	}
	return fromStarts(n, starts)
}

// equalTail reports whether a with its first element dropped equals b
// (both sorted).
func equalTail(a, b []int) bool {
	if len(a) != len(b)+1 {
		return false
	}
	for i, v := range b {
		if a[i+1] != v {
			return false
		}
	}
	return true
}

// StrictPartition computes the L/U supernode partition of a static
// symbolic factorization: columns j and j+1 belong to the same supernode
// iff
//
//	struct(L̄_{*,j}) \ {j} = struct(L̄_{*,j+1})   (dense L diagonal block,
//	                                             equal structure below), and
//	struct(Ū_{j,*}) \ {j} = struct(Ū_{j+1,*})   (equal U row structure
//	                                             right of the block).
func StrictPartition(sym *symbolic.Result) *Partition { return StrictPartitionOrdered(sym, nil) }

// at returns the label in sym of column c of the ordered structure:
// order[c], or c itself when order is nil (the identity).
func at(order []int, c int) int {
	if order == nil {
		return c
	}
	return order[c]
}

// StrictPartitionOrdered is StrictPartition of sym relabeled so that
// its column c is column order[c] of sym (order maps new labels to old;
// nil is the identity), read through order instead of relabeled. The
// order must keep L̄ lower and Ū upper triangular, as every postorder of
// the LU eforest does. Then the tests are exact in the old labels: the
// first entry of an L̄ column or Ū row is its diagonal in both
// labelings, and the rest compare as sets, which a bijection preserves
// and which sorted lists compare entry by entry.
func StrictPartitionOrdered(sym *symbolic.Result, order []int) *Partition {
	n := sym.N
	starts := []int{0}
	for j := 1; j < n; j++ {
		prev, cur := at(order, j-1), at(order, j)
		same := equalTail(sym.L.Col(prev), sym.L.Col(cur)) && equalTail(sym.URows.Col(prev), sym.URows.Col(cur))
		if !same {
			starts = append(starts, j)
		}
	}
	starts = append(starts, n)
	return fromStarts(n, starts)
}

// MaxWidth is the widest block a partition of the analysis ever has:
// Split never leaves a block wider, whatever width it is asked for.
// It is the width contract of the numeric kernels too — a panel LU, a
// diagonal-block triangle solve and a packed L panel are at most
// MaxWidth columns wide (internal/blas relies on it: one unblocked
// panel loop, one triangle-solve loop, one packed column block).
const MaxWidth = 32

// Width returns the block width cap Split applies for a requested
// maxWidth: maxWidth itself when it lies in [1, MaxWidth], MaxWidth
// otherwise.
func Width(maxWidth int) int {
	if maxWidth <= 0 || maxWidth > MaxWidth {
		return MaxWidth
	}
	return maxWidth
}

// AmalgamationOptions tunes the supernode amalgamation.
type AmalgamationOptions struct {
	// MaxSize is the load-balance threshold: after fill-ratio-driven
	// merging, blocks wider than MaxSize are split into near-equal
	// panels by Split so the task graph stays balanced at high worker
	// counts. Values ≤ 0 or above MaxWidth mean MaxWidth (see Width).
	MaxSize int
	// MaxFill is the maximum allowed fraction of explicit zeros that a
	// merge may introduce into the merged panels, relative to the merged
	// panel storage. Merging is driven by this bound alone — width is
	// handled afterwards by Split. Negative means 0.25.
	MaxFill float64
}

// panelUnion keeps |∪ structures| of a running group of consecutive
// blocks without materializing the union: stamp[i] is the last block
// that touched index i, and i belongs to the running group iff that
// block is at or after the group's first.
type panelUnion struct {
	stamp []int
	size  int // |union| over the running group
}

func newPanelUnion(n int) panelUnion {
	u := panelUnion{stamp: make([]int, n)}
	for i := range u.stamp {
		u.stamp[i] = -1
	}
	return u
}

// add stamps one structure of block k and returns how many of its
// indices block k had not touched before (own) and how many of those
// the group starting at block first does not hold either (fresh).
func (u *panelUnion) add(structure []int, k, first int) (own, fresh int) {
	for _, i := range structure {
		if s := u.stamp[i]; s != k {
			own++
			if s < first {
				fresh++
			}
			u.stamp[i] = k
		}
	}
	return own, fresh
}

// Amalgamate greedily merges consecutive supernodes while the explicit
// zeros introduced into the dense panel storage stay below MaxFill of
// the merged storage. The policy is purely fill-ratio-driven: there is
// no width cap during merging; callers bound the block width afterwards
// with Split. Merging consecutive blocks is always structurally safe
// because blocks are stored dense.
func Amalgamate(p *Partition, sym *symbolic.Result, opts AmalgamationOptions) *Partition {
	return AmalgamateOrdered(p, sym, nil, opts)
}

// AmalgamateOrdered is Amalgamate of sym relabeled by order, read
// through it (see StrictPartitionOrdered). It is exact for any order:
// it compares only sizes of unions of structures and entry counts, and
// a relabeling maps the unions onto each other.
func AmalgamateOrdered(p *Partition, sym *symbolic.Result, order []int, opts AmalgamationOptions) *Partition {
	if opts.MaxFill < 0 {
		opts.MaxFill = 0.25
	}
	nb := p.NumBlocks()
	if nb <= 1 {
		return p
	}
	// The running group [first, k): its width, the sizes of the unions
	// of its L̄ column and Ū row structures, and its entries of Ā.
	lRows, uCols := newPanelUnion(p.N), newPanelUnion(p.N)
	first, width, actual := 0, 0, 0
	starts := make([]int, 1, nb+1)
	for k := 0; k < nb; k++ {
		lo, hi := p.Range(k)
		var ownL, freshL, ownU, freshU, nnz int
		for c := lo; c < hi; c++ {
			lc, uc := sym.L.Col(at(order, c)), sym.URows.Col(at(order, c))
			nnz += len(lc) + len(uc)
			o, f := lRows.add(lc, k, first)
			ownL, freshL = ownL+o, freshL+f
			o, f = uCols.add(uc, k, first)
			ownU, freshU = ownU+o, freshU+f
		}
		if k > 0 {
			st := (width + hi - lo) * (lRows.size + freshL + uCols.size + freshU)
			if st > 0 && float64(st-actual-nnz) <= opts.MaxFill*float64(st) {
				width, actual = width+hi-lo, actual+nnz
				lRows.size, uCols.size = lRows.size+freshL, uCols.size+freshU
				continue
			}
			starts = append(starts, lo)
		}
		first, width, actual = k, hi-lo, nnz
		lRows.size, uCols.size = ownL, ownU
	}
	return fromStarts(p.N, append(starts, p.N))
}

// Split breaks every block wider than Width(maxWidth) into near-equal
// consecutive panels of at most that many columns. Splitting is always
// structurally safe — any refinement of a valid consecutive partition
// is itself valid (blocks are stored dense, so cutting a block only
// shrinks the dense submatrices). Partitions already within the bound
// are returned unchanged.
func Split(p *Partition, maxWidth int) *Partition {
	maxWidth = Width(maxWidth)
	if p.MaxSize() <= maxWidth {
		return p
	}
	var starts []int
	starts = append(starts, 0)
	for k := 0; k < p.NumBlocks(); k++ {
		lo, hi := p.Range(k)
		w := hi - lo
		pieces := (w + maxWidth - 1) / maxWidth
		base, rem := w/pieces, w%pieces
		at := lo
		for i := 0; i < pieces; i++ {
			at += base
			if i < rem {
				at++
			}
			starts = append(starts, at)
		}
	}
	return fromStarts(p.N, starts)
}

// BlockPattern computes the N×N block sparsity structure induced by the
// partition: block (I, J) is present iff Ā has a structural entry inside
// the submatrix. The diagonal blocks are always present.
func BlockPattern(sym *symbolic.Result, p *Partition) *sparse.Pattern {
	return BlockPatternOrdered(sym, nil, p)
}

// BlockPatternOrdered is BlockPattern of sym relabeled by order, read
// through it (see StrictPartitionOrdered, whose precondition it shares):
// an entry in old row or column i lies in block ColToBlock[perm[i]],
// perm the inverse of order. Ū is read by rows — its blocks right of
// the diagonal, block row by block row — and transposed at block level
// into the columns, above the diagonal block and the sorted L̄ blocks
// below it.
func BlockPatternOrdered(sym *symbolic.Result, order []int, p *Partition) *sparse.Pattern {
	nb := p.NumBlocks()
	blockOf := p.ColToBlock // blockOf[i]: the block of row or column i of sym
	if order != nil {
		blockOf = make([]int, len(order))
		for c, i := range order {
			blockOf[i] = p.ColToBlock[c]
		}
	}
	// The blocks of Ū right of the diagonal, by block row, and how many
	// each block column gets.
	stamp := make([]int, nb) // stamp[B] = K+1 once block B is listed for K
	above := make([]int, nb)
	uPtr, uInd := make([]int, nb+1), make([]int, 0, 4*nb)
	for bi := 0; bi < nb; bi++ {
		stamp[bi] = bi + 1
		lo, hi := p.Range(bi)
		for i := lo; i < hi; i++ {
			for _, j := range sym.URows.Col(at(order, i)) {
				if bj := blockOf[j]; stamp[bj] != bi+1 {
					stamp[bj] = bi + 1
					uInd = append(uInd, bj)
					above[bj]++
				}
			}
		}
		uPtr[bi+1] = len(uInd)
	}
	// Column by column: room for the blocks above, the diagonal block,
	// the L̄ blocks below it.
	clear(stamp)
	colPtr, rowInd := make([]int, nb+1), make([]int, 0, 2*len(uInd)+nb)
	for bj := 0; bj < nb; bj++ {
		stamp[bj] = bj + 1
		rowInd = append(rowInd, make([]int, above[bj])...)
		rowInd = append(rowInd, bj)
		below := len(rowInd)
		lo, hi := p.Range(bj)
		for j := lo; j < hi; j++ {
			for _, i := range sym.L.Col(at(order, j)) {
				if bi := blockOf[i]; stamp[bi] != bj+1 {
					stamp[bi] = bj + 1
					rowInd = append(rowInd, bi)
				}
			}
		}
		slices.Sort(rowInd[below:])
		colPtr[bj+1] = len(rowInd)
	}
	// Fill the room above each diagonal block: block rows ascend, so each
	// column's blocks come out sorted. The counts become the cursors.
	next := above
	for bj := range next {
		next[bj] = colPtr[bj]
	}
	for bi := 0; bi < nb; bi++ {
		for _, bj := range uInd[uPtr[bi]:uPtr[bi+1]] {
			rowInd[next[bj]] = bi
			next[bj]++
		}
	}
	return &sparse.Pattern{NRows: nb, NCols: nb, ColPtr: colPtr, RowInd: rowInd}
}

// ExplicitZeros counts how many explicit zeros the dense-block storage
// of the given block pattern carries relative to the scalar structure Ā:
// stored − |Ā|, where stored is the total area of the present blocks.
func ExplicitZeros(sym *symbolic.Result, p *Partition, blocks *sparse.Pattern) int {
	stored := 0
	for bj := 0; bj < blocks.NCols; bj++ {
		w := p.Size(bj)
		for _, bi := range blocks.Col(bj) {
			stored += p.Size(bi) * w
		}
	}
	return stored - sym.NNZ()
}

// DenseEntries returns the total area of the blocks of the block
// structure r under p: the entries its dense block storage holds. A
// block (I, J) has area Size(I)·Size(J) whichever way it is reached, so
// Ū is summed by rows.
func DenseEntries(r *symbolic.Result, p *Partition) int {
	total := 0
	for k := 0; k < r.N; k++ {
		h := -p.Size(k) // the diagonal block is in both L and U
		for _, i := range r.L.Col(k) {
			h += p.Size(i)
		}
		for _, j := range r.URows.Col(k) {
			h += p.Size(j)
		}
		total += h * p.Size(k)
	}
	return total
}
