package etree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// paperMatrix mirrors the 7×7 worked example used in the symbolic tests:
// two coupled 3-chains joined through a last dense-ish column/row.
func paperMatrix() *sparse.CSC {
	t := sparse.NewTriplet(7, 7)
	entries := [][2]int{
		{0, 0}, {0, 3},
		{1, 1}, {1, 4},
		{2, 2}, {2, 5},
		{3, 0}, {3, 3}, {3, 6},
		{4, 1}, {4, 4}, {4, 6},
		{5, 2}, {5, 5}, {5, 6},
		{6, 3}, {6, 4}, {6, 5}, {6, 6},
	}
	for k, e := range entries {
		t.Add(e[0], e[1], float64(k+1))
	}
	return t.ToCSC()
}

func randomZeroFreeDiag(n int, density float64, rng *rand.Rand) *sparse.CSC {
	t := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		t.Add(i, i, 1+rng.Float64())
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				t.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return t.ToCSC()
}

func mustFactor(t *testing.T, a *sparse.CSC) *symbolic.Result {
	t.Helper()
	r, err := symbolic.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewForestBasics(t *testing.T) {
	//      3
	//     / \
	//    1   2
	//   /
	//  0      and 4 isolated
	f := NewForest([]int{1, 3, 3, None, None})
	if f.NumTrees() != 2 {
		t.Fatalf("NumTrees = %d, want 2", f.NumTrees())
	}
	if len(f.Children[3]) != 2 || f.Children[3][0] != 1 || f.Children[3][1] != 2 {
		t.Fatalf("Children[3] = %v", f.Children[3])
	}
	if f.Roots[0] != 3 || f.Roots[1] != 4 {
		t.Fatalf("Roots = %v", f.Roots)
	}
	if !f.IsAncestor(3, 0) || f.IsAncestor(2, 0) {
		t.Fatal("IsAncestor wrong")
	}
	sizes := f.SubtreeSizes()
	if sizes[3] != 4 || sizes[1] != 2 || sizes[4] != 1 {
		t.Fatalf("SubtreeSizes = %v", sizes)
	}
}

func TestLUForestParentIsGreater(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(30)
		sym := mustFactor(t, randomZeroFreeDiag(n, 0.15, rng))
		f := LUForest(sym)
		for j, p := range f.Parent {
			if p != None && p <= j {
				t.Fatalf("parent(%d) = %d not greater", j, p)
			}
		}
	}
}

func TestLUForestDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	sym := mustFactor(t, randomZeroFreeDiag(25, 0.12, rng))
	f := LUForest(sym)
	for j := 0; j < sym.N; j++ {
		urow := sym.URows.Col(j)
		lcol := sym.L.Col(j)
		wantParent := None
		if len(lcol) > 1 && len(urow) > 1 {
			wantParent = urow[1]
		}
		if f.Parent[j] != wantParent {
			t.Fatalf("parent(%d) = %d, want %d", j, f.Parent[j], wantParent)
		}
	}
}

func TestPostOrderIsValidPerm(t *testing.T) {
	f := NewForest([]int{2, 2, 4, 4, None, 6, None})
	p := f.PostOrder()
	if err := sparse.CheckPerm(p, 7); err != nil {
		t.Fatal(err)
	}
	// Every node must be numbered after its descendants.
	for j, par := range f.Parent {
		if par != None && p[par] <= p[j] {
			t.Fatalf("postorder: parent %d (%d) not after child %d (%d)", par, p[par], j, p[j])
		}
	}
}

func TestRelabelPostOrderIsPostOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(40)
		sym := mustFactor(t, randomZeroFreeDiag(n, 0.1, rng))
		f := LUForest(sym)
		g := f.Relabel(f.PostOrder())
		if !g.IsPostOrdered() {
			t.Fatalf("trial %d: relabeled forest is not post-ordered", trial)
		}
	}
}

func TestIsPostOrderedRejects(t *testing.T) {
	// parent(1) = 0 violates parent > child.
	f := NewForest([]int{None, 0})
	if f.IsPostOrdered() {
		t.Fatal("forest with decreasing edge accepted")
	}
	// Interleaved trees: {0,2} tree with root 2, {1} isolated — subtree
	// of 2 is not a contiguous range.
	g := NewForest([]int{2, None, None})
	if g.IsPostOrdered() {
		t.Fatal("forest with non-contiguous subtree accepted")
	}
}

// Theorem 1: if ū_ij ≠ 0 then ū_kj ≠ 0 for every ancestor k of i with
// k < j.
func TestTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(25)
		sym := mustFactor(t, randomZeroFreeDiag(n, 0.15, rng))
		f := LUForest(sym)
		u := sym.UCols()
		for j := 0; j < n; j++ {
			for _, i := range u.Col(j) {
				if i == j {
					continue
				}
				for k := f.Parent[i]; k != None && k < j; k = f.Parent[k] {
					if !u.Has(k, j) {
						t.Fatalf("trial %d: ū(%d,%d)≠0 but ancestor %d missing in column %d", trial, i, j, k, j)
					}
				}
			}
		}
	}
}

// Theorem 2: if ū_ij ≠ 0 then i ∈ T[j], or i ∈ T[k] for some root k < j.
func TestTheorem2(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(25)
		sym := mustFactor(t, randomZeroFreeDiag(n, 0.15, rng))
		f := LUForest(sym)
		root := make([]int, n)
		for _, r := range f.Roots {
			var mark func(v int)
			mark = func(v int) {
				root[v] = r
				for _, c := range f.Children[v] {
					mark(c)
				}
			}
			mark(r)
		}
		u := sym.UCols()
		for j := 0; j < n; j++ {
			for _, i := range u.Col(j) {
				if i == j {
					continue
				}
				inTj := f.IsAncestor(j, i)
				inEarlierTree := root[i] < j && f.Parent[root[i]] == None
				if !inTj && !inEarlierTree {
					t.Fatalf("trial %d: ū(%d,%d) violates Theorem 2 (root of %d is %d)", trial, i, j, i, root[i])
				}
			}
		}
	}
}

// Rows of L̄ are confined to the subtree of their index (the
// characterization of Section 2: row i of L̄ is a branch within T[i]).
func TestLRowsWithinSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(25)
		sym := mustFactor(t, randomZeroFreeDiag(n, 0.15, rng))
		f := LUForest(sym)
		lt := sym.L.Transpose() // Col(i) = row i of L̄
		for i := 0; i < n; i++ {
			for _, j := range lt.Col(i) {
				if j == i {
					continue
				}
				if !f.IsAncestor(i, j) {
					t.Fatalf("trial %d: l̄(%d,%d) ≠ 0 but %d ∉ T[%d]", trial, i, j, j, i)
				}
			}
		}
	}
}

// Theorem 3: postordering does not change the static symbolic
// factorization — factoring the permuted matrix equals relabeling the
// factored structures.
func TestTheorem3PostorderPreservesSymbolic(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(25)
		a := randomZeroFreeDiag(n, 0.12, rng)
		sym := mustFactor(t, a)
		f := LUForest(sym)
		po := PostorderSymbolic(sym, f)
		ap := a.PermuteSym(po.Perm)
		symP := mustFactor(t, ap)
		if !patternsEqual(symP.L, po.Sym.L) {
			t.Fatalf("trial %d: L̄ of permuted matrix differs from relabeled L̄", trial)
		}
		if !patternsEqual(symP.URows, po.Sym.URows) {
			t.Fatalf("trial %d: Ū of permuted matrix differs from relabeled Ū", trial)
		}
	}
}

func TestPostorderedForestMatchesRecomputed(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	a := randomZeroFreeDiag(30, 0.1, rng)
	sym := mustFactor(t, a)
	f := LUForest(sym)
	po := PostorderSymbolic(sym, f)
	recomputed := LUForest(po.Sym)
	for j := range recomputed.Parent {
		if recomputed.Parent[j] != po.Forest.Parent[j] {
			t.Fatalf("parent(%d): relabeled %d, recomputed %d", j, po.Forest.Parent[j], recomputed.Parent[j])
		}
	}
}

// Section 3: the postordered matrix is block upper triangular with the
// trees as diagonal blocks.
func TestBlockUpperTriangularDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(30)
		a := randomZeroFreeDiag(n, 0.08, rng)
		sym := mustFactor(t, a)
		po := PostorderSymbolic(sym, LUForest(sym))
		ranges := po.Forest.TreeRanges()
		if i, j := BlockUpperTriangular(po.Sym, ranges); i != -1 {
			t.Fatalf("trial %d: entry (%d,%d) below the diagonal blocks %v", trial, i, j, ranges)
		}
		// Ranges must tile [0, n).
		covered := 0
		for _, r := range ranges {
			covered += r[1] - r[0] + 1
		}
		if covered != n {
			t.Fatalf("trial %d: ranges cover %d of %d", trial, covered, n)
		}
	}
}

func TestPaperExampleForest(t *testing.T) {
	a := paperMatrix()
	sym := mustFactor(t, a)
	f := LUForest(sym)
	// The example couples 0–3, 1–4, 2–5 through column 6: the forest is
	// a single tree rooted at 6.
	if f.NumTrees() != 1 || f.Roots[0] != 6 {
		t.Fatalf("roots = %v, want [6]", f.Roots)
	}
	po := PostorderSymbolic(sym, f)
	if !po.Forest.IsPostOrdered() {
		t.Fatal("postordered example not post-ordered")
	}
}

func patternsEqual(a, b *sparse.Pattern) bool {
	if a.NCols != b.NCols || a.NNZ() != b.NNZ() {
		return false
	}
	for j := 0; j < a.NCols; j++ {
		ac, bc := a.Col(j), b.Col(j)
		if len(ac) != len(bc) {
			return false
		}
		for k := range ac {
			if ac[k] != bc[k] {
				return false
			}
		}
	}
	return true
}

// Property: for random matrices the postorder keeps triangularity of the
// relabeled structures (L̄ stays lower, Ū stays upper).
func TestQuickPostorderKeepsTriangularity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		a := randomZeroFreeDiag(n, 0.15, rng)
		sym, err := symbolic.Factor(a)
		if err != nil {
			return false
		}
		po := PostorderSymbolic(sym, LUForest(sym))
		u := po.Sym.UCols()
		for j := 0; j < n; j++ {
			for _, i := range po.Sym.L.Col(j) {
				if i < j {
					return false
				}
			}
			for _, i := range u.Col(j) {
				if i > j {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
