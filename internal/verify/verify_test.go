package verify

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/etree"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
)

func randomMatrix(n int, density float64, seed int64) *sparse.CSC {
	rng := rand.New(rand.NewSource(seed))
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

func analysis(t *testing.T, n int, density float64, seed int64, v taskgraph.Variant) (*sparse.CSC, *symbolic.Result, *etree.Forest, *taskgraph.Graph) {
	t.Helper()
	a := randomMatrix(n, density, seed)
	sym, err := symbolic.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	f := etree.LUForest(sym)
	return a, sym, f, taskgraph.New(sym, f, v)
}

func TestVerifyDAGAccepts(t *testing.T) {
	for _, v := range []taskgraph.Variant{taskgraph.SStar, taskgraph.EForest} {
		for seed := int64(1); seed <= 4; seed++ {
			_, _, _, g := analysis(t, 30, 0.1, seed, v)
			if err := VerifyDAG(g); err != nil {
				t.Errorf("%v seed %d: %v", v, seed, err)
			}
		}
	}
}

func TestVerifyDAGRejectsCorruption(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(g *taskgraph.Graph)
		want string
	}{
		{"self-loop", func(g *taskgraph.Graph) {
			g.Succ[0] = append(g.Succ[0], 0)
			g.NumEdges++
		}, "self-loop"},
		{"out-of-range edge", func(g *taskgraph.Graph) {
			g.Succ[0] = append(g.Succ[0], int32(g.NumTasks()))
			g.NumEdges++
		}, "out of range"},
		{"edge count drift", func(g *taskgraph.Graph) {
			g.NumEdges++
		}, "NumEdges"},
		{"duplicate edge", func(g *taskgraph.Graph) {
			for id := range g.Succ {
				if len(g.Succ[id]) > 0 {
					g.Succ[id] = append(g.Succ[id], g.Succ[id][0])
					g.NumEdges++
					return
				}
			}
		}, "duplicate"},
		{"cycle", func(g *taskgraph.Graph) {
			// Close a cycle along the first existing edge.
			for id := range g.Succ {
				if len(g.Succ[id]) > 0 {
					s := g.Succ[id][0]
					g.Succ[s] = append(g.Succ[s], int32(id))
					g.NumEdges++
					return
				}
			}
		}, "cycle"},
		{"stale factor index", func(g *taskgraph.Graph) {
			g.FactorID[0], g.FactorID[1] = g.FactorID[1], g.FactorID[0]
		}, "FactorID"},
		{"update out of destination order", func(g *taskgraph.Graph) {
			// UpdateID searches a source's updates by destination.
			for k := 0; k < g.N; k++ {
				if lo, hi := g.Updates(k); hi-lo > 1 {
					g.Tasks[lo].J, g.Tasks[lo+1].J = g.Tasks[lo+1].J, g.Tasks[lo].J
					return
				}
			}
		}, "Update"},
	}
	for _, c := range corruptions {
		_, _, _, g := analysis(t, 25, 0.12, 7, taskgraph.EForest)
		c.mut(g)
		err := VerifyDAG(g)
		if err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestVerifyLeastDependencesAccepts(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		_, _, f, g := analysis(t, 35, 0.08, seed, taskgraph.EForest)
		if err := VerifyLeastDependences(g, f); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestVerifyLeastDependencesRejectsSStar(t *testing.T) {
	_, _, f, g := analysis(t, 30, 0.1, 3, taskgraph.SStar)
	if err := VerifyLeastDependences(g, f); err == nil {
		t.Fatal("accepted an S* graph as eforest-guided")
	}
}

func TestVerifyLeastDependencesRejectsExtraAndMissingEdges(t *testing.T) {
	// An extra edge between updates whose sources are not parent-linked
	// must be caught (a dependence Theorem 4 proves unnecessary).
	_, _, f, g := analysis(t, 35, 0.08, 11, taskgraph.EForest)
	found := false
outer:
	for k := 0; k < g.N && !found; k++ {
		for id, hi := g.Updates(k); id < hi; id++ {
			for k2 := 0; k2 < g.N; k2++ {
				if k2 == k || f.Parent[k] == k2 {
					continue
				}
				if id2, ok := g.UpdateID(k2, g.Tasks[id].J); ok {
					g.Succ[id] = append(g.Succ[id], int32(id2))
					g.NumEdges++
					found = true
					continue outer
				}
			}
		}
	}
	if !found {
		t.Skip("no suitable update pair in this instance")
	}
	if err := VerifyLeastDependences(g, f); err == nil {
		t.Error("extra non-eforest edge not detected")
	}

	// A missing required edge must be caught too.
	_, _, f2, g2 := analysis(t, 35, 0.08, 11, taskgraph.EForest)
	for id := range g2.Succ {
		if g2.Tasks[id].Kind == taskgraph.Update && len(g2.Succ[id]) > 0 {
			g2.Succ[id] = g2.Succ[id][:len(g2.Succ[id])-1]
			g2.NumEdges--
			break
		}
	}
	if err := VerifyLeastDependences(g2, f2); err == nil {
		t.Error("missing required edge not detected")
	}
}

// TestVerifyLeastDependencesOnStoredBlocks runs the check on the graph
// the numeric phase runs — the eforest graph of the closure contracted
// onto the stored blocks — and on a copy without one of its
// F(k) → F(parent(k)) edges.
func TestVerifyLeastDependencesOnStoredBlocks(t *testing.T) {
	dropped := 0
	for seed := int64(1); seed <= 6; seed++ {
		_, sym, _, _ := analysis(t, 60, 0.03, seed, taskgraph.EForest)
		_, stored, closure := storedAndClosure(t, sym, 0.5)
		f := etree.LUForest(closure)
		g := taskgraph.NewStored(closure, f, stored, taskgraph.EForest)
		if err := VerifyLeastDependences(g, f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k := 0; k < g.N; k++ {
			succ := g.Succ[g.FactorID[k]]
			if len(succ) == 0 || g.Tasks[succ[0]].Kind != taskgraph.Factor {
				continue
			}
			g.Succ[g.FactorID[k]] = succ[1:]
			g.NumEdges--
			if err := VerifyLeastDependences(g, f); err == nil || !strings.Contains(err.Error(), "requires") {
				t.Fatalf("seed %d: F(%d) without its edge to F(%d) passed: %v", seed, k, f.Parent[k], err)
			}
			dropped++
			break
		}
	}
	if dropped == 0 {
		t.Fatal("no stored graph had an F(k) → F(parent(k)) edge to drop")
	}
}

func TestVerifyPostorderInvarianceAccepts(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, sym, f, _ := analysis(t, 40, 0.07, seed, taskgraph.EForest)
		if err := VerifyPostorderInvariance(a, sym, f); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestVerifyPostorderInvarianceRejectsForeignMatrix(t *testing.T) {
	// The symbolic factorization of one matrix relabeled by its forest's
	// postorder cannot match the factorization of a different matrix.
	a1, sym, f, _ := analysis(t, 40, 0.07, 21, taskgraph.EForest)
	a2 := randomMatrix(40, 0.12, 99)
	if sparse.PatternOf(a1).NNZ() == sparse.PatternOf(a2).NNZ() {
		t.Fatal("test matrices accidentally identical")
	}
	if err := VerifyPostorderInvariance(a2, sym, f); err == nil {
		t.Error("mismatched matrix not detected")
	}
}

func TestVerifyDimensionMismatches(t *testing.T) {
	a, sym, f, g := analysis(t, 20, 0.12, 5, taskgraph.EForest)
	small := randomMatrix(10, 0.2, 6)
	if err := VerifyPostorderInvariance(small, sym, f); err == nil {
		t.Error("order mismatch not detected")
	}
	wrongForest := etree.NewForest(make([]int, 5))
	if err := VerifyLeastDependences(g, wrongForest); err == nil {
		t.Error("forest size mismatch not detected")
	}
	_ = a
}

// storedAndClosure partitions sym the way the analysis does and returns
// the block structure that is stored and its block-level closure.
func storedAndClosure(t *testing.T, sym *symbolic.Result, maxFill float64) (*supernode.Partition, *symbolic.Result, *symbolic.Result) {
	t.Helper()
	part := supernode.Amalgamate(supernode.StrictPartition(sym), sym, supernode.AmalgamationOptions{MaxFill: maxFill})
	bp := supernode.BlockPattern(sym, part)
	closure, err := symbolic.Factor(bp.ToCSC(1))
	if err != nil {
		t.Fatal(err)
	}
	return part, symbolic.FromPattern(bp), closure
}

func TestVerifyStoredBlocksAccepts(t *testing.T) {
	for _, maxFill := range []float64{0, 0.25, 0.75} {
		for seed := int64(1); seed <= 6; seed++ {
			_, sym, _, _ := analysis(t, 60, 0.02, seed, taskgraph.EForest)
			part, stored, closure := storedAndClosure(t, sym, maxFill)
			if err := VerifyStoredBlocks(sym, part, stored, closure); err != nil {
				t.Errorf("fill %g seed %d: %v", maxFill, seed, err)
			}
		}
	}
}

func TestVerifyStoredBlocksRejects(t *testing.T) {
	_, sym, _, _ := analysis(t, 60, 0.02, 3, taskgraph.EForest)
	part, stored, closure := storedAndClosure(t, sym, 0.25)
	if stored.NNZ() == closure.NNZ() {
		t.Fatal("the closure adds no block: pick another seed")
	}
	// The closure is not what is stored, however safe it would be.
	if err := VerifyStoredBlocks(sym, part, closure, closure); err == nil || !strings.Contains(err.Error(), "stored") {
		t.Errorf("closure passed for the stored structure: %v", err)
	}
	// A scheduling structure that lacks a stored block orders too little.
	eye := sparse.NewTriplet(part.NumBlocks(), part.NumBlocks())
	for k := 0; k < part.NumBlocks(); k++ {
		eye.Add(k, k, 1)
	}
	diagonal := symbolic.FromPattern(sparse.PatternOf(eye.ToCSC()))
	if err := VerifyStoredBlocks(sym, part, stored, diagonal); err == nil || !strings.Contains(err.Error(), "closure") {
		t.Errorf("a closure without the stored blocks passed: %v", err)
	}
	// A scalar structure that is not closed under elimination: l̄(1,0)
	// and ū(0,2) without (1,2). Its block pattern leaves out a block
	// that an update would fill.
	tr := sparse.NewTriplet(3, 3)
	for i := 0; i < 3; i++ {
		tr.Add(i, i, 1)
	}
	tr.Add(1, 0, 1)
	tr.Add(0, 2, 1)
	a := tr.ToCSC()
	open := symbolic.FromPattern(sparse.PatternOf(a))
	closed, err := symbolic.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStoredBlocks(open, supernode.Trivial(3), open, closed); err == nil || !strings.Contains(err.Error(), "block (1,2) is not stored") {
		t.Errorf("an unclosed structure passed: %v", err)
	}
}
