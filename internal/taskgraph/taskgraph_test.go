package taskgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/etree"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
)

// paperMatrix is the 7×7 worked example shared with the etree tests; its
// LU eforest is the chain/tree 0→3→4→5→6 with 1→4 and 2→5.
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

func bothGraphs(t *testing.T, sym *symbolic.Result) (*Graph, *Graph, *etree.Forest) {
	t.Helper()
	f := etree.LUForest(sym)
	return New(sym, nil, SStar), New(sym, f, EForest), f
}

// reachable computes whether dst is reachable from src.
func reachable(g *Graph, src, dst int) bool {
	seen := make([]bool, g.NumTasks())
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == dst {
			return true
		}
		for _, s := range g.Succ[v] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, int(s))
			}
		}
	}
	return false
}

func TestTaskSetsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 10; trial++ {
		sym := mustFactor(t, randomZeroFreeDiag(15+rng.Intn(15), 0.12, rng))
		gs, ge, _ := bothGraphs(t, sym)
		if gs.NumTasks() != ge.NumTasks() {
			t.Fatalf("task counts differ: %d vs %d", gs.NumTasks(), ge.NumTasks())
		}
		for id := range gs.Tasks {
			if gs.Tasks[id] != ge.Tasks[id] {
				t.Fatalf("task %d differs: %v vs %v", id, gs.Tasks[id], ge.Tasks[id])
			}
		}
	}
}

// U(k, j) is the first update id of k plus the position of j among the
// off-diagonal entries of row k of Ū; blocks outside Ū have no task.
func TestUpdateIDFollowsURows(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	for trial := 0; trial < 10; trial++ {
		sym := mustFactor(t, randomZeroFreeDiag(10+rng.Intn(25), 0.12, rng))
		_, g, _ := bothGraphs(t, sym)
		for k := 0; k < g.N; k++ {
			first, hi := g.Updates(k)
			dests := sym.URows.Col(k)[1:]
			if hi-first != len(dests) {
				t.Fatalf("trial %d: Updates(%d) spans %d tasks, row has %d off-diagonal blocks", trial, k, hi-first, len(dests))
			}
			pos := 0
			for j := 0; j < g.N; j++ {
				id, ok := g.UpdateID(k, j)
				switch {
				case pos < len(dests) && dests[pos] == j:
					if want := (Task{Kind: Update, K: k, J: j}); !ok || id != first+pos || g.Tasks[id] != want {
						t.Fatalf("trial %d: UpdateID(%d,%d) = %d, %v, want %d", trial, k, j, id, ok, first+pos)
					}
					pos++
				case ok:
					t.Fatalf("trial %d: UpdateID(%d,%d) = %d for a block outside Ū", trial, k, j, id)
				}
			}
		}
	}
	if _, ok := Independent(3).UpdateID(0, 2); ok {
		t.Fatal("Independent graph reports an update task")
	}
}

func TestGraphsAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 15; trial++ {
		sym := mustFactor(t, randomZeroFreeDiag(10+rng.Intn(25), 0.12, rng))
		gs, ge, _ := bothGraphs(t, sym)
		if _, err := gs.TopoOrder(); err != nil {
			t.Fatalf("S* graph: %v", err)
		}
		if _, err := ge.TopoOrder(); err != nil {
			t.Fatalf("eforest graph: %v", err)
		}
	}
}

func TestFactorPrecedesItsUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	sym := mustFactor(t, randomZeroFreeDiag(20, 0.12, rng))
	for _, g := range func() []*Graph { a, b, _ := bothGraphs(t, sym); return []*Graph{a, b} }() {
		for k := 0; k < g.N; k++ {
			for id, hi := g.Updates(k); id < hi; id++ {
				j := g.Tasks[id].J
				if !reachable(g, g.FactorID[k], id) {
					t.Fatalf("%v: F(%d) does not precede U(%d,%d)", g.Variant, k, k, j)
				}
			}
		}
	}
}

// In both graphs, every update whose source lies in the subtree of k
// must complete before F(k): those are the updates that write the panel
// F(k) factorizes.
func TestPanelUpdatesPrecedeFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 15; trial++ {
		sym := mustFactor(t, randomZeroFreeDiag(8+rng.Intn(20), 0.15, rng))
		gs, ge, f := bothGraphs(t, sym)
		for _, g := range []*Graph{gs, ge} {
			for k := 0; k < g.N; k++ {
				for i := 0; i < k; i++ {
					id, ok := g.UpdateID(i, k)
					if !ok {
						continue
					}
					if !f.IsAncestor(k, i) {
						continue // update from an earlier tree: touches only rows above k
					}
					if !reachable(g, id, g.FactorID[k]) {
						t.Fatalf("%v trial %d: U(%d,%d) does not precede F(%d)", g.Variant, trial, i, k, k)
					}
				}
			}
		}
	}
}

// Theorem 4 ordering: U(i,k) must precede U(i',k) whenever i' is an
// ancestor of i (both graphs must enforce this; S* does it by index
// order, the eforest graph by parent chains).
func TestAncestorUpdateOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 15; trial++ {
		sym := mustFactor(t, randomZeroFreeDiag(8+rng.Intn(20), 0.15, rng))
		gs, ge, f := bothGraphs(t, sym)
		for _, g := range []*Graph{gs, ge} {
			for j := 0; j < g.N; j++ {
				// Collect update tasks targeting j.
				var srcs []int
				for i := 0; i < j; i++ {
					if _, ok := g.UpdateID(i, j); ok {
						srcs = append(srcs, i)
					}
				}
				for _, a := range srcs {
					for _, b := range srcs {
						if a == b || !f.IsAncestor(b, a) {
							continue
						}
						ia, _ := g.UpdateID(a, j)
						ib, _ := g.UpdateID(b, j)
						if !reachable(g, ia, ib) {
							t.Fatalf("%v trial %d: U(%d,%d) does not precede U(%d,%d)", g.Variant, trial, a, j, b, j)
						}
					}
				}
			}
		}
	}
}

// Independent-subtree updates must NOT be ordered in the eforest graph —
// that is the parallelism the paper exposes.
func TestIndependentUpdatesUnorderedInEForest(t *testing.T) {
	sym := mustFactor(t, paperMatrix())
	_, ge, f := bothGraphs(t, sym)
	// Sources 0 and 1 are in independent subtrees (0 under 3, 1 under 4
	// with neither an ancestor of the other); both update column 6.
	if f.IsAncestor(0, 1) || f.IsAncestor(1, 0) {
		t.Fatal("example no longer has independent sources 0 and 1")
	}
	id0, ok0 := ge.UpdateID(0, 6)
	id1, ok1 := ge.UpdateID(1, 6)
	if !ok0 || !ok1 {
		t.Fatal("example no longer has U(0,6) and U(1,6)")
	}
	if reachable(ge, id0, id1) || reachable(ge, id1, id0) {
		t.Fatal("eforest graph orders updates from independent subtrees")
	}
}

func TestSStarSerializesAllUpdates(t *testing.T) {
	sym := mustFactor(t, paperMatrix())
	gs, _, _ := bothGraphs(t, sym)
	// In S*, updates on column 6 form a chain in ascending source order.
	var prev = -1
	for i := 0; i < 6; i++ {
		id, ok := gs.UpdateID(i, 6)
		if !ok {
			continue
		}
		if prev != -1 && !reachable(gs, prev, id) {
			t.Fatalf("S*: U(·,6) chain broken between tasks %d and %d", prev, id)
		}
		prev = id
	}
}

func TestEForestStrictlyMoreParallel(t *testing.T) {
	sym := mustFactor(t, paperMatrix())
	gs, ge, _ := bothGraphs(t, sym)
	cpS, totS, err := gs.CriticalPath(nil)
	if err != nil {
		t.Fatal(err)
	}
	cpE, totE, err := ge.CriticalPath(nil)
	if err != nil {
		t.Fatal(err)
	}
	if totS != totE {
		t.Fatalf("total work differs: %g vs %g", totS, totE)
	}
	if cpE > cpS {
		t.Fatalf("eforest critical path %g longer than S* %g", cpE, cpS)
	}
	if ge.NumEdges > gs.NumEdges {
		t.Fatalf("eforest graph has %d edges, S* has %d — expected no more", ge.NumEdges, gs.NumEdges)
	}
	// The parallelism gain must be real on this example: removing the
	// false dependences strictly shrinks the set of ordered task pairs
	// (e.g. U(0,6) and U(1,6) are unordered in the eforest graph).
	if pe, ps := orderedPairs(ge), orderedPairs(gs); pe >= ps {
		t.Fatalf("eforest graph has %d ordered pairs, S* has %d — expected fewer", pe, ps)
	}
}

// orderedPairs counts the ordered task pairs (a, b) with b reachable
// from a — the size of the transitive closure.
func orderedPairs(g *Graph) int {
	count := 0
	for id := range g.Tasks {
		seen := make([]bool, g.NumTasks())
		stack := []int{id}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range g.Succ[v] {
				if !seen[s] {
					seen[s] = true
					count++
					stack = append(stack, int(s))
				}
			}
		}
	}
	return count
}

func TestCriticalPathNeverWorseAcrossRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	for trial := 0; trial < 15; trial++ {
		sym := mustFactor(t, randomZeroFreeDiag(15+rng.Intn(25), 0.1, rng))
		gs, ge, _ := bothGraphs(t, sym)
		cpS, _, _ := gs.CriticalPath(nil)
		cpE, _, _ := ge.CriticalPath(nil)
		if cpE > cpS {
			t.Fatalf("trial %d: eforest critical path %g > S* %g", trial, cpE, cpS)
		}
	}
}

func TestCriticalPathTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	for trial := 0; trial < 10; trial++ {
		sym := mustFactor(t, randomZeroFreeDiag(15+rng.Intn(25), 0.1, rng))
		_, g, _ := bothGraphs(t, sym)
		path, cp, err := g.CriticalPathTasks(nil)
		if err != nil {
			t.Fatal(err)
		}
		// The explicit path must have the scalar critical path's length
		// (unit weights: one per task on the path).
		wantCP, _, err := g.CriticalPath(nil)
		if err != nil {
			t.Fatal(err)
		}
		if cp != wantCP {
			t.Fatalf("trial %d: path length %g, CriticalPath %g", trial, cp, wantCP)
		}
		if float64(len(path)) != cp {
			t.Fatalf("trial %d: %d tasks on a unit-weight path of length %g", trial, len(path), cp)
		}
		// Consecutive path tasks must be dependence edges.
		for i := 0; i+1 < len(path); i++ {
			found := false
			for _, s := range g.Succ[path[i]] {
				if int(s) == path[i+1] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: %d → %d on the path is not an edge", trial, path[i], path[i+1])
			}
		}
		// Deterministic across calls.
		path2, _, err := g.CriticalPathTasks(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range path {
			if path[i] != path2[i] {
				t.Fatalf("trial %d: path not deterministic", trial)
			}
		}
	}
}

func TestCriticalPathTasksCycle(t *testing.T) {
	g := &Graph{Tasks: make([]Task, 2), Succ: [][]int32{{1}, {0}}}
	if _, _, err := g.CriticalPathTasks(nil); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestTaskString(t *testing.T) {
	if (Task{Kind: Factor, K: 3}).String() != "F(3)" {
		t.Fatal("Factor String wrong")
	}
	if (Task{Kind: Update, K: 1, J: 4}).String() != "U(1,4)" {
		t.Fatal("Update String wrong")
	}
	if SStar.String() != "S*" || EForest.String() != "eforest" {
		t.Fatal("variant names wrong")
	}
}

func TestCostModel(t *testing.T) {
	sym := mustFactor(t, paperMatrix())
	f := etree.LUForest(sym)
	g := New(sym, f, EForest)
	part := supernode.Trivial(sym.N)
	cm := NewCostModel(g, sym, part)
	if len(cm.TaskFlops) != g.NumTasks() {
		t.Fatal("cost model size mismatch")
	}
	for id, c := range cm.TaskFlops {
		if c <= 0 {
			t.Fatalf("task %v has non-positive cost %g", g.Tasks[id], c)
		}
	}
	if cm.TotalFlops() <= 0 {
		t.Fatal("total flops non-positive")
	}
	cp, total, err := g.CriticalPath(cm.TaskFlops)
	if err != nil {
		t.Fatal(err)
	}
	if cp <= 0 || total < cp {
		t.Fatalf("cp = %g, total = %g", cp, total)
	}
}

func TestCostModelPanelHeights(t *testing.T) {
	sym := mustFactor(t, paperMatrix())
	g := New(sym, etree.LUForest(sym), EForest)
	cm := NewCostModel(g, sym, supernode.Trivial(sym.N))
	for k := 0; k < sym.N; k++ {
		if cm.PanelHeight[k] != len(sym.L.Col(k)) {
			t.Fatalf("panel height %d = %d, want %d", k, cm.PanelHeight[k], len(sym.L.Col(k)))
		}
		if cm.Width[k] != 1 {
			t.Fatalf("width %d = %d", k, cm.Width[k])
		}
	}
}

func TestGraphWithBlockedPartition(t *testing.T) {
	// End-to-end through supernode blocking: build block structure,
	// re-factor symbolically at block level, then both graphs.
	rng := rand.New(rand.NewSource(87))
	a := randomZeroFreeDiag(40, 0.08, rng)
	sym := mustFactor(t, a)
	part := supernode.Amalgamate(supernode.StrictPartition(sym), sym, supernode.AmalgamationOptions{MaxSize: 8, MaxFill: 0.3})
	bp := supernode.BlockPattern(sym, part)
	blockSym := mustFactor(t, bp.ToCSC(1))
	f := etree.LUForest(blockSym)
	gs := New(blockSym, nil, SStar)
	ge := New(blockSym, f, EForest)
	if _, err := gs.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	if _, err := ge.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	if ge.NumEdges > gs.NumEdges {
		t.Fatalf("eforest %d edges > S* %d", ge.NumEdges, gs.NumEdges)
	}

	// Costed on the stored blocks, a graph built on their closure
	// charges nothing for an update whose block is not stored, no more
	// than the closure's cost for any task, and less in total.
	stored := symbolic.FromPattern(bp)
	if stored.NNZ() == blockSym.NNZ() {
		t.Fatal("the closure adds no block: pick another seed")
	}
	onClosure, onStored := NewCostModel(ge, blockSym, part), NewCostModel(ge, stored, part)
	for id, task := range ge.Tasks {
		switch c := onStored.TaskFlops[id]; {
		case task.Kind == Update && !stored.URows.Has(task.J, task.K) && c != 0:
			t.Fatalf("%v has no stored block but costs %g", task, c)
		case c > onClosure.TaskFlops[id] || c < 0:
			t.Fatalf("%v costs %g on the stored blocks, %g on the closure", task, c, onClosure.TaskFlops[id])
		}
	}
	if onStored.TotalFlops() >= onClosure.TotalFlops() {
		t.Fatalf("total %g on the stored blocks, %g on the closure", onStored.TotalFlops(), onClosure.TotalFlops())
	}
}

// sameGraph requires two graphs to agree task for task and edge for edge
// in order.
func sameGraph(t *testing.T, ctx string, got, want *Graph) {
	t.Helper()
	if got.NumTasks() != want.NumTasks() || got.NumEdges != want.NumEdges {
		t.Fatalf("%s: %d tasks / %d edges, want %d / %d", ctx, got.NumTasks(), got.NumEdges, want.NumTasks(), want.NumEdges)
	}
	for id := range want.Tasks {
		if got.Tasks[id] != want.Tasks[id] || !slices.Equal(got.Succ[id], want.Succ[id]) {
			t.Fatalf("%s: task %d is %v → %v, want %v → %v", ctx, id,
				got.Tasks[id], got.Succ[id], want.Tasks[id], want.Succ[id])
		}
	}
}

// TestNewStoredOnEveryBlockIsNew: with every block of the closure stored
// there is nothing to contract, so NewStored is New's EForest graph; and
// ClosureCounts is New's size without New, under either variant.
func TestNewStoredOnEveryBlockIsNew(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 10; trial++ {
		sym := mustFactor(t, randomZeroFreeDiag(10+rng.Intn(40), 0.1, rng))
		f := etree.LUForest(sym)
		sameGraph(t, fmt.Sprintf("trial %d", trial), NewStored(f, sym), New(sym, f, EForest))
		for _, v := range []Variant{SStar, EForest} {
			want := New(sym, f, v)
			if tasks, edges := ClosureCounts(sym, f, v); tasks != want.NumTasks() || edges != want.NumEdges {
				t.Fatalf("trial %d %v: ClosureCounts %d / %d, New %d / %d", trial, v, tasks, edges, want.NumTasks(), want.NumEdges)
			}
		}
	}
}

// TestNewStoredSkipsDroppedBlocks drops U(0,3) from the worked example's
// chain 0 → 3 → 4 → 5 → 6: F(0) must then precede F(3) itself, and an
// update whose chain ran through a dropped block links past it.
func TestNewStoredSkipsDroppedBlocks(t *testing.T) {
	sym := mustFactor(t, paperMatrix())
	f := etree.LUForest(sym)
	if f.Parent[0] != 3 || f.Parent[3] != 4 {
		t.Fatalf("example eforest parents %v", f.Parent)
	}
	// Keep every block of Ā but (0,3) and (3,6).
	tr := sparse.NewTriplet(7, 7)
	u := sym.UCols()
	for j := 0; j < 7; j++ {
		for _, col := range [][]int{sym.L.Col(j), u.Col(j)} {
			for _, i := range col {
				if (i != 0 || j != 3) && (i != 3 || j != 6) {
					tr.Add(i, j, 1)
				}
			}
		}
	}
	stored := symbolic.FromPattern(sparse.PatternOf(tr.ToCSC()))
	g := NewStored(f, stored)
	if _, ok := g.UpdateID(0, 3); ok {
		t.Fatal("U(0,3) was dropped but has a task")
	}
	if !slices.Contains(g.Succ[g.FactorID[0]], int32(g.FactorID[3])) {
		t.Fatalf("F(0) → %v, want F(3) among them", g.Succ[g.FactorID[0]])
	}
	// U(0,6) chained to U(3,6) in the closure; with (3,6) dropped the
	// first stored task down the chain is U(4,6).
	up, okUp := g.UpdateID(0, 6)
	want, okWant := g.UpdateID(4, 6)
	if !okUp || !okWant {
		t.Fatal("the example needs U(0,6) and U(4,6)")
	}
	if !slices.Equal(g.Succ[up], []int32{int32(want)}) {
		t.Fatalf("U(0,6) → %v, want U(4,6)", g.Succ[up])
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	if cp, _, err := g.CriticalPath(nil); err != nil || cp < 1 {
		t.Fatalf("critical path %v, %v", cp, err)
	}
}

func TestNewPanicsWithoutForest(t *testing.T) {
	sym := mustFactor(t, paperMatrix())
	defer func() {
		if recover() == nil {
			t.Fatal("EForest without forest did not panic")
		}
	}()
	New(sym, nil, EForest)
}

func TestNewPanicsUnknownVariant(t *testing.T) {
	sym := mustFactor(t, paperMatrix())
	defer func() {
		if recover() == nil {
			t.Fatal("unknown variant did not panic")
		}
	}()
	New(sym, etree.LUForest(sym), Variant(99))
}

func TestUnknownVariantString(t *testing.T) {
	if Variant(99).String() != "unknown" {
		t.Fatal("unknown variant name")
	}
}

func TestBottomLevels(t *testing.T) {
	sym := mustFactor(t, paperMatrix())
	g := New(sym, etree.LUForest(sym), EForest)
	bl, err := g.BottomLevels(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bottom level of a task is strictly larger than that of each
	// successor.
	for id := range g.Succ {
		for _, s := range g.Succ[id] {
			if bl[id] <= bl[s] {
				t.Fatalf("bottom level of %d (%g) not above successor %d (%g)", id, bl[id], s, bl[s])
			}
		}
	}
	// The max bottom level equals the unit critical path.
	cp, _, _ := g.CriticalPath(nil)
	maxBL := 0.0
	for _, v := range bl {
		if v > maxBL {
			maxBL = v
		}
	}
	if maxBL != cp {
		t.Fatalf("max bottom level %g != critical path %g", maxBL, cp)
	}
}

func TestDiagonalMatrixGraph(t *testing.T) {
	// A diagonal matrix has only Factor tasks and no edges.
	tr := sparse.NewTriplet(4, 4)
	for i := 0; i < 4; i++ {
		tr.Add(i, i, 1)
	}
	sym := mustFactor(t, tr.ToCSC())
	g := New(sym, etree.LUForest(sym), EForest)
	if g.NumTasks() != 4 || g.NumEdges != 0 {
		t.Fatalf("tasks %d edges %d, want 4 0", g.NumTasks(), g.NumEdges)
	}
	if cp, total, err := g.CriticalPath(nil); err != nil || cp != 1 || total != 4 {
		t.Fatalf("critical path %g of %g (%v), want 1 of 4", cp, total, err)
	}
}
