package ordering

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// grid2DPattern builds the symmetric 5-point Laplacian pattern of an
// nx×ny grid (including the diagonal).
func grid2DPattern(nx, ny int) *sparse.Pattern {
	n := nx * ny
	t := sparse.NewTriplet(n, n)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := id(x, y)
			t.Add(v, v, 1)
			if x > 0 {
				t.Add(v, id(x-1, y), 1)
				t.Add(id(x-1, y), v, 1)
			}
			if y > 0 {
				t.Add(v, id(x, y-1), 1)
				t.Add(id(x, y-1), v, 1)
			}
		}
	}
	return sparse.PatternOf(t.ToCSC())
}

// symbolicCholeskyFill counts the nonzeros of the Cholesky factor of a
// symmetric pattern under permutation perm, by plain symbolic
// elimination (reference implementation, O(fill · deg)).
func symbolicCholeskyFill(g *sparse.Pattern, perm sparse.Perm) int {
	n := g.NCols
	inv := perm.Inverse()
	// adjacency under the new labels
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[int]bool{}
	}
	for j := 0; j < n; j++ {
		for _, i := range g.Col(j) {
			if i != j {
				a, b := perm[i], perm[j]
				adj[a][b] = true
				adj[b][a] = true
			}
		}
	}
	_ = inv
	fill := n // diagonal
	for v := 0; v < n; v++ {
		// neighbours with higher elimination number
		var higher []int
		for u := range adj[v] {
			if u > v {
				higher = append(higher, u)
			}
		}
		fill += len(higher)
		for i := 0; i < len(higher); i++ {
			for k := i + 1; k < len(higher); k++ {
				a, b := higher[i], higher[k]
				adj[a][b] = true
				adj[b][a] = true
			}
		}
	}
	return fill
}

// exactMinimumDegree is the reference MinimumDegree is tested against:
// the quotient-graph minimum degree with element absorption that
// recomputes the exact external degree of every boundary variable at
// every pivot — no supervariables, no mass elimination, no degree
// bound. It was the package's ordering until the approximate-degree
// rewrite. Returns perm[old] = new elimination position.
func exactMinimumDegree(g *sparse.Pattern) sparse.Perm {
	if g.NRows != g.NCols {
		panic("ordering: exactMinimumDegree needs a square (symmetric) pattern")
	}
	n := g.NCols
	if n == 0 {
		return sparse.Perm{}
	}

	// Variable adjacency (dynamic), element boundaries, and the element
	// lists of each variable.
	adj := make([][]int32, n)
	for j := 0; j < n; j++ {
		col := g.Col(j)
		lst := make([]int32, 0, len(col))
		for _, i := range col {
			if i != j {
				lst = append(lst, int32(i))
			}
		}
		adj[j] = lst
	}
	elems := make([][]int32, 0, n) // element id -> boundary variables
	velems := make([][]int32, n)   // variable -> incident element ids
	alive := make([]bool, n)
	elemAlive := make([]bool, 0, n)
	for i := range alive {
		alive[i] = true
	}

	// Degree buckets: doubly-linked lists threaded through next/prev.
	deg := make([]int, n)
	head := make([]int, n+1)
	next := make([]int, n)
	prev := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	insert := func(v int) {
		d := deg[v]
		next[v] = head[d]
		prev[v] = -1
		if head[d] != -1 {
			prev[head[d]] = v
		}
		head[d] = v
	}
	remove := func(v int) {
		d := deg[v]
		if prev[v] != -1 {
			next[prev[v]] = next[v]
		} else {
			head[d] = next[v]
		}
		if next[v] != -1 {
			prev[next[v]] = prev[v]
		}
	}
	for v := 0; v < n; v++ {
		deg[v] = len(adj[v])
		insert(v)
	}

	marker := make([]int, n)
	for i := range marker {
		marker[i] = -1
	}
	stamp := 0
	perm := make(sparse.Perm, n)
	minDeg := 0

	scratch := make([]int32, 0, n)

	for k := 0; k < n; k++ {
		// Find the lowest non-empty bucket.
		for minDeg <= n && (minDeg >= len(head) || head[minDeg] == -1) {
			minDeg++
		}
		if minDeg > n {
			panic("ordering: empty degree structure before completion")
		}
		v := head[minDeg]
		remove(v)
		alive[v] = false
		perm[v] = k

		// Le = (adj[v] ∪ ⋃ boundaries of v's elements) \ dead.
		stamp++
		le := scratch[:0]
		marker[v] = stamp
		for _, u := range adj[v] {
			if alive[u] && marker[u] != stamp {
				marker[u] = stamp
				le = append(le, u)
			}
		}
		for _, e := range velems[v] {
			if !elemAlive[e] {
				continue
			}
			for _, u := range elems[e] {
				if alive[u] && marker[u] != stamp {
					marker[u] = stamp
					le = append(le, u)
				}
			}
			elemAlive[e] = false // absorbed into the new element
			elems[e] = nil
		}
		if len(le) == 0 {
			scratch = le
			continue
		}
		eid := int32(len(elems))
		boundary := append([]int32(nil), le...)
		elems = append(elems, boundary)
		elemAlive = append(elemAlive, true)

		// Absorbed element ids of v, for pruning from neighbours.
		stampAbs := make(map[int32]bool, len(velems[v]))
		for _, e := range velems[v] {
			stampAbs[e] = true
		}

		for _, u := range le {
			ui := int(u)
			// Prune adj[u]: drop v, dead vars, and members of Le (now
			// covered by the element).
			w := adj[ui][:0]
			for _, x := range adj[ui] {
				if x != int32(v) && alive[x] && marker[x] != stamp {
					w = append(w, x)
				}
			}
			adj[ui] = w
			// Replace absorbed elements with the new one.
			we := velems[ui][:0]
			for _, e := range velems[ui] {
				if elemAlive[e] && !stampAbs[e] {
					we = append(we, e)
				}
			}
			velems[ui] = append(we, eid)
		}

		// Recompute exact external degrees of the boundary variables.
		for _, u := range le {
			ui := int(u)
			stamp++
			marker[ui] = stamp
			d := 0
			for _, x := range adj[ui] {
				if alive[x] && marker[x] != stamp {
					marker[x] = stamp
					d++
				}
			}
			for _, e := range velems[ui] {
				for _, x := range elems[e] {
					if alive[x] && marker[x] != stamp {
						marker[x] = stamp
						d++
					}
				}
			}
			remove(ui)
			deg[ui] = d
			insert(ui)
			if d < minDeg {
				minDeg = d
			}
		}
		scratch = le[:0]
	}
	return perm
}

func TestMinimumDegreeValidPerm(t *testing.T) {
	g := grid2DPattern(7, 5)
	p := MinimumDegree(g)
	if err := sparse.CheckPerm(p, 35); err != nil {
		t.Fatal(err)
	}
}

func TestMinimumDegreeReducesFillOnGrid(t *testing.T) {
	g := grid2DPattern(12, 12)
	n := 144
	natural := symbolicCholeskyFill(g, sparse.Identity(n))
	md := symbolicCholeskyFill(g, MinimumDegree(g))
	if md >= natural {
		t.Fatalf("minimum degree fill %d not below natural fill %d", md, natural)
	}
}

func TestMinimumDegreeStarGraph(t *testing.T) {
	// Star: center 0 connected to 1..6. MD must eliminate leaves first;
	// eliminating the center first would create a 6-clique.
	n := 7
	tr := sparse.NewTriplet(n, n)
	for v := 0; v < n; v++ {
		tr.Add(v, v, 1)
	}
	for v := 1; v < n; v++ {
		tr.Add(0, v, 1)
		tr.Add(v, 0, 1)
	}
	g := sparse.PatternOf(tr.ToCSC())
	p := MinimumDegree(g)
	// Once only the center and one leaf remain they tie at degree 1, so
	// the center may be eliminated at position n-2 or n-1.
	if p[0] < n-2 {
		t.Fatalf("center eliminated at position %d, want ≥ %d", p[0], n-2)
	}
	if fill := symbolicCholeskyFill(g, p); fill != 2*n-1 {
		t.Fatalf("star fill = %d, want %d (no fill-in)", fill, 2*n-1)
	}
}

func TestMinimumDegreePathNoFill(t *testing.T) {
	// A path graph is chordal; MD should find a no-fill ordering.
	n := 20
	tr := sparse.NewTriplet(n, n)
	for v := 0; v < n; v++ {
		tr.Add(v, v, 1)
		if v > 0 {
			tr.Add(v, v-1, 1)
			tr.Add(v-1, v, 1)
		}
	}
	g := sparse.PatternOf(tr.ToCSC())
	p := MinimumDegree(g)
	if fill := symbolicCholeskyFill(g, p); fill != 2*n-1 {
		t.Fatalf("path fill = %d, want %d", fill, 2*n-1)
	}
}

func TestMinimumDegreeEmptyAndSingleton(t *testing.T) {
	if p := MinimumDegree(&sparse.Pattern{ColPtr: []int{0}}); len(p) != 0 {
		t.Fatal("empty pattern should give empty perm")
	}
	tr := sparse.NewTriplet(1, 1)
	tr.Add(0, 0, 1)
	p := MinimumDegree(sparse.PatternOf(tr.ToCSC()))
	if len(p) != 1 || p[0] != 0 {
		t.Fatalf("singleton perm = %v", p)
	}
}

func TestMinimumDegreeDisconnected(t *testing.T) {
	// Two disjoint triangles.
	n := 6
	tr := sparse.NewTriplet(n, n)
	addTri := func(a, b, c int) {
		for _, v := range []int{a, b, c} {
			tr.Add(v, v, 1)
		}
		for _, e := range [][2]int{{a, b}, {b, c}, {a, c}} {
			tr.Add(e[0], e[1], 1)
			tr.Add(e[1], e[0], 1)
		}
	}
	addTri(0, 1, 2)
	addTri(3, 4, 5)
	p := MinimumDegree(sparse.PatternOf(tr.ToCSC()))
	if err := sparse.CheckPerm(p, n); err != nil {
		t.Fatal(err)
	}
}

func TestRCMValidAndReducesBandwidth(t *testing.T) {
	g := grid2DPattern(10, 10)
	n := 100
	// Scramble first so the natural band is destroyed.
	rng := rand.New(rand.NewSource(41))
	scramble := sparse.RandomPerm(n, rng)
	scrambled := sparse.PatternOf(g.ToCSC(1).PermuteSym(scramble))

	bandwidth := func(g *sparse.Pattern, p sparse.Perm) int {
		bw := 0
		for j := 0; j < g.NCols; j++ {
			for _, i := range g.Col(j) {
				d := p[i] - p[j]
				if d < 0 {
					d = -d
				}
				if d > bw {
					bw = d
				}
			}
		}
		return bw
	}
	p := ReverseCuthillMcKee(scrambled)
	if err := sparse.CheckPerm(p, n); err != nil {
		t.Fatal(err)
	}
	before := bandwidth(scrambled, sparse.Identity(n))
	after := bandwidth(scrambled, p)
	if after >= before {
		t.Fatalf("RCM bandwidth %d not below scrambled bandwidth %d", after, before)
	}
}

func TestColumnOrderingMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 15
	tr := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
		for k := 0; k < 3; k++ {
			tr.Add(rng.Intn(n), rng.Intn(n), 1)
		}
	}
	a := tr.ToCSC()
	for _, m := range []Method{Natural, MinDegreeATA, RCMATA} {
		p := ColumnOrdering(a, m)
		if err := sparse.CheckPerm(p, n); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
	if ColumnOrdering(a, Natural)[3] != 3 {
		t.Fatal("natural ordering should be identity")
	}
}

func TestMethodString(t *testing.T) {
	if Natural.String() == "" || MinDegreeATA.String() == "" || RCMATA.String() == "" {
		t.Fatal("empty method name")
	}
	if Method(99).String() != "unknown" {
		t.Fatal("unknown method name")
	}
}

// Property: MD always yields a valid permutation and never produces more
// fill than the natural order by more than the trivial bound (sanity: it
// is a heuristic, but on random sparse symmetric patterns it should be
// valid and complete).
func TestQuickMinimumDegreeValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		tr := sparse.NewTriplet(n, n)
		for v := 0; v < n; v++ {
			tr.Add(v, v, 1)
		}
		for e := 0; e < 3*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			tr.Add(i, j, 1)
			tr.Add(j, i, 1)
		}
		p := MinimumDegree(sparse.PatternOf(tr.ToCSC()))
		return sparse.CheckPerm(p, n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// symmetricPattern builds the pattern of a symmetric n×n matrix with a
// full diagonal and the given undirected edges.
func symmetricPattern(n int, edges [][2]int) *sparse.Pattern {
	tr := sparse.NewTriplet(n, n)
	for v := 0; v < n; v++ {
		tr.Add(v, v, 1)
	}
	for _, e := range edges {
		tr.Add(e[0], e[1], 1)
		tr.Add(e[1], e[0], 1)
	}
	return sparse.PatternOf(tr.ToCSC())
}

func clique(vs ...int) [][2]int {
	var edges [][2]int
	for a := range vs {
		for b := a + 1; b < len(vs); b++ {
			edges = append(edges, [2]int{vs[a], vs[b]})
		}
	}
	return edges
}

// grid3DPattern is the 7-point stencil pattern of an nx×ny×nz grid.
func grid3DPattern(nx, ny, nz int) *sparse.Pattern {
	id := func(x, y, z int) int { return (z*ny+y)*nx + x }
	var edges [][2]int
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if x > 0 {
					edges = append(edges, [2]int{id(x, y, z), id(x-1, y, z)})
				}
				if y > 0 {
					edges = append(edges, [2]int{id(x, y, z), id(x, y-1, z)})
				}
				if z > 0 {
					edges = append(edges, [2]int{id(x, y, z), id(x, y, z-1)})
				}
			}
		}
	}
	return symmetricPattern(nx*ny*nz, edges)
}

func randomSymmetricPattern(n, edgesPerVertex int, seed int64) *sparse.Pattern {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, 0, n*edgesPerVertex)
	for e := 0; e < n*edgesPerVertex; e++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return symmetricPattern(n, edges)
}

// The approximate-degree ordering must stay a minimum degree ordering in
// what the pipeline buys it for: its fill may not exceed the exact
// external-degree reference's by more than a tenth on any pattern
// class the suite draws from.
func TestMinimumDegreeFillAgainstExactReference(t *testing.T) {
	type input struct {
		name string
		g    *sparse.Pattern
	}
	inputs := []input{
		{"grid2d-12x12", grid2DPattern(12, 12)},
		{"grid2d-31x17", grid2DPattern(31, 17)},
		{"grid3d-6x6x6", grid3DPattern(6, 6, 6)},
		{"grid3d-9x5x4", grid3DPattern(9, 5, 4)},
		{"random-200x2", randomSymmetricPattern(200, 2, 51)},
		{"random-300x1", randomSymmetricPattern(300, 1, 52)},
		{"random-120x5", randomSymmetricPattern(120, 5, 53)},
	}
	for _, sp := range matgen.SmallSuite() {
		inputs = append(inputs, input{"ata-" + sp.Name, sparse.ATAPattern(sp.Gen())})
	}
	for _, in := range inputs {
		n := in.g.NCols
		p := MinimumDegree(in.g)
		if err := sparse.CheckPerm(p, n); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		got := symbolicCholeskyFill(in.g, p)
		ref := symbolicCholeskyFill(in.g, exactMinimumDegree(in.g))
		t.Logf("%-16s n=%4d fill %6d, exact-degree reference %6d (%.2f×)", in.name, n, got, ref, float64(got)/float64(ref))
		if 10*got > 11*ref {
			t.Errorf("%s: fill %d exceeds 1.10 × the exact-degree reference's %d", in.name, got, ref)
		}
	}
}

// On the shapes that exercise one mechanism each, the ordering is a
// valid permutation, loses nothing to the exact-degree reference (all
// but the cycle are chordal, so neither may create fill), and is a pure
// function of the pattern — the same on every call and from concurrent
// callers, which the symbolic cache, Reanalyze's fingerprint equality
// and the bitwise-parity suites all assume.
func TestMinimumDegreeDegenerateShapes(t *testing.T) {
	path := func(n int) [][2]int {
		var edges [][2]int
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{v - 1, v})
		}
		return edges
	}
	star := func(n int) [][2]int {
		var edges [][2]int
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{0, v})
		}
		return edges
	}
	cycle := symmetricPattern(9, append(path(9), [2]int{8, 0}))
	shapes := []struct {
		name string
		g    *sparse.Pattern
	}{
		{"empty", &sparse.Pattern{ColPtr: []int{0}}},
		{"1x1", symmetricPattern(1, nil)},
		{"no entries at all", &sparse.Pattern{NRows: 4, NCols: 4, ColPtr: []int{0, 0, 0, 0, 0}}},
		{"diagonal only", symmetricPattern(9, nil)},
		{"one clique (a single supervariable)", symmetricPattern(8, clique(0, 1, 2, 3, 4, 5, 6, 7))},
		{"star", symmetricPattern(11, star(11))},
		{"path", symmetricPattern(23, path(23))},
		{"disconnected components", symmetricPattern(12, append(append(clique(0, 1, 2, 3), path(4)...), [2]int{9, 11}))},
		{"two cliques sharing one vertex", symmetricPattern(9, append(clique(0, 1, 2, 3, 4), clique(4, 5, 6, 7, 8)...))},
		{"all columns distinct (cycle)", cycle},
	}
	for _, sh := range shapes {
		n := sh.g.NCols
		p := MinimumDegree(sh.g)
		if err := sparse.CheckPerm(p, n); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		got, ref := symbolicCholeskyFill(sh.g, p), symbolicCholeskyFill(sh.g, exactMinimumDegree(sh.g))
		if got > ref {
			t.Errorf("%s: fill %d above the exact-degree reference's %d", sh.name, got, ref)
		}
		var wg sync.WaitGroup
		again := make([]sparse.Perm, 4)
		for c := range again {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				again[c] = MinimumDegree(sh.g)
			}(c)
		}
		wg.Wait()
		for c := range again {
			if !reflect.DeepEqual(again[c], p) {
				t.Errorf("%s: concurrent call %d returned %v, first call %v", sh.name, c, again[c], p)
			}
		}
	}

	// The distinct-column pattern really has no two equal columns to
	// merge at the start.
	cols := map[string]bool{}
	for j := 0; j < cycle.NCols; j++ {
		cols[fmt.Sprint(cycle.Col(j))] = true
	}
	if len(cols) != cycle.NCols {
		t.Fatalf("cycle pattern has only %d distinct columns of %d", len(cols), cycle.NCols)
	}
}

// The same purity on patterns large enough to merge, mass-eliminate and
// absorb many times over.
func TestMinimumDegreeDeterministic(t *testing.T) {
	for _, sp := range matgen.SmallSuite() {
		g := sparse.ATAPattern(sp.Gen())
		first := MinimumDegree(g)
		// A fresh copy of the pattern: nothing may depend on addresses.
		if second := MinimumDegree(sparse.PatternOf(g.ToCSC(1))); !reflect.DeepEqual(first, second) {
			t.Errorf("%s: two calls on the same pattern disagree", sp.Name)
		}
	}
}

// The contract asks for a symmetric pattern, but a caller's mistake must
// cost fill, not memory safety: on an unsymmetric pattern the in-place
// list rewrites may outgrow their slots, and the result is still a
// permutation.
func TestMinimumDegreeUnsymmetricInputStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		tr := sparse.NewTriplet(n, n)
		for e := 0; e < 4*n; e++ {
			tr.Add(rng.Intn(n), rng.Intn(n), 1)
		}
		if err := sparse.CheckPerm(MinimumDegree(sparse.PatternOf(tr.ToCSC())), n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
