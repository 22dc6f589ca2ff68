// Package etree implements the elimination structures of the paper: the
// LU elimination forest of a statically factored matrix (Definition 1,
// after Shen, Jiao & Yang), its postordering (Section 3) together with
// the induced block-upper-triangular decomposition. The
// characterizations of the L̄ rows and Ū columns in terms of the forest
// (Theorems 1–2) are exposed as predicates so tests and the task-graph
// construction can rely on them.
package etree

import (
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// None marks a node without a parent (a root).
const None = -1

// Forest is a rooted forest over the n columns of a matrix.
type Forest struct {
	// Parent[j] is the parent of node j, or None for roots.
	Parent []int
	// Children[j] lists the children of j in ascending order.
	Children [][]int
	// Roots lists the roots in ascending order.
	Roots []int
}

// NewForest builds the child lists and root list from a parent vector.
func NewForest(parent []int) *Forest {
	n := len(parent)
	f := &Forest{Parent: parent, Children: make([][]int, n)}
	// Child lists are cut from one array: count, then fill. Nodes are
	// scanned in ascending order, so child and root lists come out
	// ascending.
	count := make([]int, n)
	for _, p := range parent {
		if p != None {
			count[p]++
		}
	}
	children := make([]int, 0, n)
	for j, c := range count {
		f.Children[j] = children[len(children) : len(children) : len(children)+c]
		children = children[:len(children)+c]
	}
	for j, p := range parent {
		if p == None {
			f.Roots = append(f.Roots, j)
		} else {
			f.Children[p] = append(f.Children[p], j)
		}
	}
	return f
}

// Len returns the number of nodes.
func (f *Forest) Len() int { return len(f.Parent) }

// NumTrees returns the number of trees in the forest.
func (f *Forest) NumTrees() int { return len(f.Roots) }

// LUForest computes the LU elimination forest of a static symbolic
// factorization (Definition 1): parent(j) = min{r > j : ū_jr ≠ 0}
// provided column j of L̄ has an off-diagonal entry (|L̄_{*j}| > 1);
// otherwise j is a root.
func LUForest(sym *symbolic.Result) *Forest {
	n := sym.N
	parent := make([]int, n)
	for j := 0; j < n; j++ {
		parent[j] = None
		if len(sym.L.Col(j)) <= 1 {
			continue // no off-diagonal in L̄ column j
		}
		urow := sym.URows.Col(j) // sorted, urow[0] == j
		if len(urow) > 1 {
			parent[j] = urow[1]
		}
	}
	return NewForest(parent)
}

// PostOrder returns the postorder permutation of the forest in scatter
// convention (perm[old] = new): children are visited in ascending order
// and trees in ascending order of their roots, so every node is numbered
// after all of its descendants, and nodes of a tree with a smaller root
// are numbered before every node of a tree with a larger root. This is
// the reordering of Section 3 of the paper.
func (f *Forest) PostOrder() sparse.Perm {
	n := f.Len()
	perm := make(sparse.Perm, n)
	next := 0
	// Iterative DFS to survive deep chains.
	type frame struct {
		node  int
		child int
	}
	stack := make([]frame, 0, 64)
	for _, r := range f.Roots {
		stack = append(stack[:0], frame{node: r})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if fr.child < len(f.Children[fr.node]) {
				c := f.Children[fr.node][fr.child]
				fr.child++
				stack = append(stack, frame{node: c})
				continue
			}
			perm[fr.node] = next
			next++
			stack = stack[:len(stack)-1]
		}
	}
	if next != n {
		panic("etree: forest does not cover all nodes (cycle in parent vector?)")
	}
	return perm
}

// Relabel returns the forest with node labels mapped through perm
// (perm[old] = new).
func (f *Forest) Relabel(perm sparse.Perm) *Forest {
	n := f.Len()
	parent := make([]int, n)
	for j := 0; j < n; j++ {
		p := f.Parent[j]
		if p == None {
			parent[perm[j]] = None
		} else {
			parent[perm[j]] = perm[p]
		}
	}
	return NewForest(parent)
}

// IsAncestor reports whether a is an ancestor of d (or equal to it).
func (f *Forest) IsAncestor(a, d int) bool {
	for d != None {
		if d == a {
			return true
		}
		d = f.Parent[d]
	}
	return false
}

// SubtreeSizes returns, for every node, the number of nodes in its
// subtree (including itself).
func (f *Forest) SubtreeSizes() []int {
	n := f.Len()
	size := make([]int, n)
	// Process nodes in an order where children come before parents. A
	// postorder gives exactly that.
	post := f.PostOrder()
	inv := post.Inverse()
	for k := 0; k < n; k++ {
		v := inv[k]
		size[v]++
		if p := f.Parent[v]; p != None {
			size[p] += size[v]
		}
	}
	return size
}

// IsPostOrdered reports whether the node labels already form a postorder
// compatible with the paper's requirements: every node is larger than
// all of its descendants, and nodes of trees with smaller roots precede
// all nodes of trees with larger roots.
func (f *Forest) IsPostOrdered() bool {
	// Condition 1: parent > child for all edges.
	for j, p := range f.Parent {
		if p != None && p <= j {
			return false
		}
	}
	// Condition 2: subtrees are contiguous label ranges [r-size+1, r].
	size := f.SubtreeSizes()
	var check func(v int) (lo int, ok bool)
	check = func(v int) (int, bool) {
		lo := v - size[v] + 1
		cur := lo
		for _, c := range f.Children[v] {
			clo, ok := check(c)
			if !ok || clo != cur {
				return 0, false
			}
			cur += size[c]
		}
		return lo, cur == v
	}
	prevEnd := -1
	for _, r := range f.Roots {
		lo, ok := check(r)
		if !ok || lo != prevEnd+1 {
			return false
		}
		prevEnd = r
	}
	return prevEnd == f.Len()-1
}

// TreeRanges returns, for a post-ordered forest, the contiguous label
// range [lo, hi] of each tree in ascending order. These are the diagonal
// blocks of the block-upper-triangular decomposition of Section 3.
func (f *Forest) TreeRanges() [][2]int {
	if !f.IsPostOrdered() {
		panic("etree: TreeRanges requires a post-ordered forest")
	}
	size := f.SubtreeSizes()
	ranges := make([][2]int, 0, len(f.Roots))
	for _, r := range f.Roots {
		ranges = append(ranges, [2]int{r - size[r] + 1, r})
	}
	return ranges
}
