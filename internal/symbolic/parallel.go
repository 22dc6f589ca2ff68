package symbolic

import (
	"repro/internal/sparse"
)

// Partition splits the columns into independent buckets plus a shared
// top region, based on the elimination tree of AᵀA. Each bucket is a
// union of disjoint etree subtrees cut below a size threshold; the top
// region is the ancestor-closed remainder. Because (i) the columns of
// any row of A form a clique in AᵀA and are therefore totally ordered
// along one root path of its etree, and (ii) fill at step k only adds
// ancestors of k, every row whose first column lies in a bucket keeps
// its entire structure inside that bucket plus top-region columns above
// the bucket's maximum — so the bucket eliminations are independent of
// each other and of the top region's, and running them concurrently
// reproduces the serial result exactly (see DESIGN.md §15).
type Partition struct {
	N int
	// ColBucket maps a column to its bucket id, or -1 for the top
	// region.
	ColBucket []int32
	// BucketCols lists each bucket's columns in ascending order.
	BucketCols [][]int32
	// MaxCol is each bucket's maximum column index.
	MaxCol []int32
	// TopCols lists the top-region columns in ascending order.
	TopCols []int32
}

// colEtree computes the elimination tree of AᵀA without forming AᵀA,
// by union-find over row cliques (the sp_coletree algorithm): each row
// links its columns through its first column. parent[j] == n marks a
// root. internal/etree has an equivalent entry point, but it depends on
// this package, so the few lines live here too.
func colEtree(a *sparse.CSC) []int32 {
	n := a.NCols
	firstcol := make([]int32, a.NRows)
	for i := range firstcol {
		firstcol[i] = int32(n)
	}
	for col := 0; col < n; col++ {
		for p := a.ColPtr[col]; p < a.ColPtr[col+1]; p++ {
			r := a.RowInd[p]
			if firstcol[r] == int32(n) {
				firstcol[r] = int32(col)
			}
		}
	}
	parent := make([]int32, n)
	pp := make([]int32, n)   // union-find parent, path-halving find
	root := make([]int32, n) // highest column eliminated into each set
	find := func(x int32) int32 {
		for pp[x] != x {
			pp[x] = pp[pp[x]]
			x = pp[x]
		}
		return x
	}
	for col := 0; col < n; col++ {
		c := int32(col)
		pp[c] = c
		root[c] = c
		parent[c] = int32(n)
		cset := c
		for p := a.ColPtr[col]; p < a.ColPtr[col+1]; p++ {
			fr := firstcol[a.RowInd[p]]
			if fr >= c {
				continue
			}
			rset := find(fr)
			rroot := root[rset]
			if rroot != c {
				parent[rroot] = c
				pp[rset] = cset
				cset = find(rset)
				root[cset] = c
			}
		}
	}
	return parent
}

// partitionMinN is the matrix order below which partitioning is not
// worth the setup cost.
const partitionMinN = 64

// PartitionColumns builds a column partition for FactorParallel from
// the AᵀA elimination tree of a: subtrees whose size is at most
// n/(2·workers) are cut where their parent's subtree exceeds it, then
// packed into at most 2·workers buckets by longest-processing-time
// binning. Returns nil when the matrix is too small, workers < 2, or
// the top region would dominate (no useful parallelism).
func PartitionColumns(a *sparse.CSC, workers int) *Partition {
	n := a.NCols
	if workers < 2 || n < partitionMinN {
		return nil
	}
	parent := colEtree(a)

	size := make([]int32, n)
	for v := range size {
		size[v] = 1
	}
	for v := 0; v < n; v++ {
		if parent[v] < int32(n) {
			size[parent[v]] += size[v]
		}
	}
	threshold := int32(n / (2 * workers))
	if threshold < 1 {
		threshold = 1
	}
	// Roots of the cut subtrees: small enough themselves, with a parent
	// (or no parent) whose subtree is too big.
	isRoot := make([]bool, n)
	var roots []int32
	for v := 0; v < n; v++ {
		if size[v] > threshold {
			continue
		}
		if parent[v] == int32(n) || size[parent[v]] > threshold {
			isRoot[v] = true
			roots = append(roots, int32(v))
		}
	}
	if len(roots) < 2 {
		return nil
	}

	// LPT-bin the subtrees into at most 2·workers buckets.
	nb := 2 * workers
	if nb > len(roots) {
		nb = len(roots)
	}
	order := make([]int32, len(roots))
	copy(order, roots)
	// Stable size-descending order with index tie-break keeps the
	// binning deterministic.
	for i := 1; i < len(order); i++ { // insertion sort: roots lists are short
		v := order[i]
		j := i - 1
		for j >= 0 && (size[order[j]] < size[v] || (size[order[j]] == size[v] && order[j] > v)) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
	binOf := make([]int32, n) // root -> bucket id
	load := make([]int64, nb)
	for _, r := range order {
		best := 0
		for b := 1; b < nb; b++ {
			if load[b] < load[best] {
				best = b
			}
		}
		binOf[r] = int32(best)
		load[best] += int64(size[r])
	}

	// Propagate bucket ids down the tree (parent index > child index,
	// so a descending scan sees parents first).
	colBucket := make([]int32, n)
	for v := n - 1; v >= 0; v-- {
		switch {
		case isRoot[v]:
			colBucket[v] = binOf[v]
		case parent[v] == int32(n):
			colBucket[v] = -1 // oversized forest root: top region
		default:
			colBucket[v] = colBucket[parent[v]]
		}
	}

	part := &Partition{
		N:          n,
		ColBucket:  colBucket,
		BucketCols: make([][]int32, nb),
		MaxCol:     make([]int32, nb),
	}
	for v := 0; v < n; v++ {
		b := colBucket[v]
		if b < 0 {
			part.TopCols = append(part.TopCols, int32(v))
			continue
		}
		part.BucketCols[b] = append(part.BucketCols[b], int32(v))
		part.MaxCol[b] = int32(v)
	}
	// A dominant top region means the serial tail would swallow the
	// parallel gain; let the caller run serially instead.
	if len(part.TopCols)*2 > n {
		return nil
	}
	return part
}

// Runner executes ntasks independent tasks by calling run(0..ntasks-1)
// in any order (possibly concurrently) and returns the first error. The
// engine in internal/sched satisfies this shape via an independent task
// graph; GoRunner provides a dependency-free pool for standalone use.
type Runner func(ntasks int, run func(i int) error) error

// serialRunner runs the tasks inline, in order.
func serialRunner(ntasks int, run func(i int) error) error {
	for i := 0; i < ntasks; i++ {
		if err := run(i); err != nil {
			return err
		}
	}
	return nil
}

// FactorParallel computes the same Result as Factor, running the
// independent column-subtree eliminations of a Partition concurrently
// through the given Runner (nil means GoRunner(workers)). With workers
// < 2, a tiny matrix, or a degenerate partition it falls back to the
// serial engine; either way the output is identical to Factor's, which
// TestFactorParallelIdentical pins over the small suite.
func FactorParallel(a *sparse.CSC, workers int, runner Runner) (*Result, error) {
	if err := checkSquareZeroFree(sparse.PatternView(a)); err != nil {
		return nil, err
	}
	part := PartitionColumns(a, workers)
	if part == nil {
		return Factor(a)
	}
	if runner == nil {
		runner = GoRunner(workers)
	}
	n := a.NCols
	at := sparse.PatternView(a).Transpose() // Col(i) = row i of A

	out := newColumns(n)
	engines := make([]*engine, len(part.BucketCols))
	for b := range engines {
		engines[b] = newEngine(n, out, len(part.BucketCols[b]))
	}
	var topRows []int32
	for r := 0; r < n; r++ {
		row := at.Col(r)
		b := part.ColBucket[row[0]] // first column decides the row's bucket
		if b < 0 {
			topRows = append(topRows, int32(r))
			continue
		}
		if err := engines[b].seedRow(int32(r), row); err != nil {
			return nil, err
		}
	}
	if err := runner(len(engines), func(i int) error {
		return engines[i].run(part.BucketCols[i])
	}); err != nil {
		return nil, err
	}

	// Merge: the survivors of every bucket join the top-region rows in
	// one final serial elimination of the top columns.
	top := newEngine(n, out, len(part.TopCols))
	for _, e := range engines {
		for _, g := range e.survivors() {
			if err := top.seedGroup(g); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range topRows {
		if err := top.seedRow(r, at.Col(int(r))); err != nil {
			return nil, err
		}
	}
	if err := top.run(part.TopCols); err != nil {
		return nil, err
	}
	return out.pack(), nil
}
