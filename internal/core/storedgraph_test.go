package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/taskgraph"
	"repro/internal/verify"
)

// contracted is the test-only oracle for Symbolic.Graph: the paper's
// graph on the block-level closure (taskgraph.New) contracted onto the
// tasks whose block is stored — F(k) for every block column, U(k,j) for
// the stored blocks of Ū — with ids mapped onto g, the graph under test.
// A dropped update hands its one closure successor on, so a kept update
// links to the first kept task down its closure chain. F(k) keeps its
// kept updates and, for each dropped U(k,j), gets F(j) only when the
// dropped update's closure link is F(j): the rest is implied by
// F(k) ≺ F(parent(k)).
type contracted struct {
	closure *taskgraph.Graph
	g       *taskgraph.Graph
	// toG maps a closure task id to its id in g, or -1 for a dropped task.
	toG []int32
	// links holds the closure's chain links (chainLinks).
	links []int32
}

func contract(t *testing.T, s *Symbolic) *contracted {
	t.Helper()
	c := &contracted{closure: taskgraph.New(s.BlockSym, s.BlockForest, taskgraph.EForest), g: s.Graph}
	c.links = chainLinks(c.closure)
	c.toG = make([]int32, c.closure.NumTasks())
	for id, task := range c.closure.Tasks {
		c.toG[id] = -1
		switch {
		case task.Kind == taskgraph.Factor:
			c.toG[id] = int32(c.g.FactorID[task.K])
		case s.Stored.URows.Has(task.J, task.K):
			up, ok := c.g.UpdateID(task.K, task.J)
			if !ok {
				t.Fatalf("stored block (%d,%d) has no task", task.K, task.J)
			}
			c.toG[id] = int32(up)
		}
	}
	return c
}

// chainLinks returns every task's chain link: an update's one successor,
// and -1 for an update with none and for every factor.
func chainLinks(g *taskgraph.Graph) []int32 {
	links := make([]int32, g.NumTasks())
	for id, task := range g.Tasks {
		links[id] = -1
		if task.Kind == taskgraph.Update && len(g.Succ[id]) > 0 {
			links[id] = g.Succ[id][0]
		}
	}
	return links
}

// firstKept returns the first kept task down id's closure chain, as an
// id of g, or -1 when the chain ends first.
func (c *contracted) firstKept(id int) int32 {
	for next := c.links[id]; next >= 0; next = c.links[next] {
		if c.toG[next] >= 0 {
			return c.toG[next]
		}
	}
	return -1
}

// succ returns the successors g must give the kept closure task id.
func (c *contracted) succ(id int) []int32 {
	var out []int32
	if c.closure.Tasks[id].Kind == taskgraph.Update {
		if next := c.firstKept(id); next >= 0 {
			out = append(out, next)
		}
		return out
	}
	for _, u := range c.closure.Succ[id] {
		switch j := c.closure.Tasks[u].J; {
		case c.toG[u] >= 0:
			out = append(out, c.toG[u])
		case c.links[u] == int32(c.closure.FactorID[j]):
			out = append(out, int32(c.g.FactorID[j]))
		}
	}
	return out
}

// reach returns, for every task of g, the set of kept tasks reachable from
// it by at least one edge, as a bitset over the ids keep maps them to.
func reach(t *testing.T, g *taskgraph.Graph, keep func(id int) int32, kept int) [][]uint64 {
	t.Helper()
	r := make([][]uint64, g.NumTasks())
	for id := range r {
		r[id] = make([]uint64, (kept+63)/64)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		for _, s := range g.Succ[id] {
			if k := keep(int(s)); k >= 0 {
				r[id][k/64] |= 1 << (k % 64)
			}
			for w := range r[id] {
				r[id][w] |= r[s][w]
			}
		}
	}
	return r
}

func popcount(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// storedGraphCase is one analysis the oracle runs on.
type storedGraphCase struct {
	name string
	a    *sparse.CSC
}

func storedGraphCases() []storedGraphCase {
	var cases []storedGraphCase
	for _, spec := range matgen.SmallSuite() {
		cases = append(cases, storedGraphCase{spec.Name, spec.Gen()})
	}
	for seed := int64(1); seed <= 12; seed++ {
		for _, pc := range matgen.GenPatterns(seed) {
			cases = append(cases, storedGraphCase{pc.Name, pc.A})
		}
	}
	return cases
}

// TestStoredGraphParity pins the graph the numeric phase runs to the
// paper's eforest graph, on the small suite and the generated patterns:
// (a) Symbolic.Graph is the closure graph contracted onto the
// stored tasks, edge for edge and in order; (b) one task reaches another
// in it exactly when it does in the closure graph, so every two tasks
// that touch a common stored block stay ordered; (c) it is a well-formed
// DAG with exactly Theorem 4's least dependences; (d) on it
// and on the closure graph every update has at most one successor, its
// chain link, and a stored update links to the first stored task down its
// closure chain. The flops it carries, its critical path and the
// priorities of its tasks are the closure graph's bit for bit, and it has
// at most twice as many edges as tasks.
func TestStoredGraphParity(t *testing.T) {
	analyses, keptTasks, noOps := 0, 0, 0
	for _, c := range storedGraphCases() {
		ctx := fmt.Sprintf("%s/%v", c.name, taskgraph.EForest)
		s, err := Analyze(c.a, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		g := s.Graph
		analyses++
		keptTasks += g.NumTasks()
		if err := verify.VerifyDAG(g); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if err := verify.VerifyLeastDependences(g, s.BlockForest); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if g.NumEdges > 2*g.NumTasks() {
			t.Fatalf("%s: %d edges for %d tasks", ctx, g.NumEdges, g.NumTasks())
		}

		// Every update has at most one successor, its chain link, on
		// the graph and on the closure it contracts.
		oc := contract(t, s)
		for _, h := range []*taskgraph.Graph{g, oc.closure} {
			for id, task := range h.Tasks {
				if task.Kind == taskgraph.Update && len(h.Succ[id]) > 1 {
					t.Fatalf("%s: %v → %v, want at most one successor", ctx, task, tasksOf(h, h.Succ[id]))
				}
			}
		}

		// (a) The contraction, edge for edge.
		links := chainLinks(g)
		kept := 0
		for id, to := range oc.toG {
			if to < 0 {
				noOps++
				continue
			}
			kept++
			if g.Tasks[to] != oc.closure.Tasks[id] {
				t.Fatalf("%s: closure task %v maps onto %v", ctx, oc.closure.Tasks[id], g.Tasks[to])
			}
			if want := oc.succ(id); !slices.Equal(g.Succ[to], want) {
				t.Fatalf("%s: %v → %v, the contraction gives %v", ctx, g.Tasks[to], tasksOf(g, g.Succ[to]), tasksOf(g, want))
			}
			if want := int32(-1); oc.closure.Tasks[id].Kind == taskgraph.Update {
				if want = oc.firstKept(id); links[to] != want {
					t.Fatalf("%s: chain link of %v is %d, the contraction gives %d", ctx, g.Tasks[to], links[to], want)
				}
			}
		}
		if kept != g.NumTasks() || s.Stats.TaskCount != oc.closure.NumTasks() || s.Stats.EdgeCount != oc.closure.NumEdges {
			t.Fatalf("%s: %d kept closure tasks for %d; stats count %d / %d, the closure graph %d / %d", ctx,
				kept, g.NumTasks(), s.Stats.TaskCount, s.Stats.EdgeCount, oc.closure.NumTasks(), oc.closure.NumEdges)
		}

		// (b) Reachability between kept tasks.
		rg := reach(t, g, func(id int) int32 { return int32(id) }, g.NumTasks())
		rc := reach(t, oc.closure, func(id int) int32 { return oc.toG[id] }, g.NumTasks())
		for id, to := range oc.toG {
			if to >= 0 && !slices.Equal(rg[to], rc[id]) {
				t.Fatalf("%s: %v reaches %d stored tasks, %d in the closure graph", ctx, g.Tasks[to], popcount(rg[to]), popcount(rc[id]))
			}
		}

		// The weights: a dropped task weighs nothing.
		ccm := taskgraph.NewCostModel(oc.closure, s.Stored, s.Part)
		cp, total, err := oc.closure.CriticalPath(ccm.TaskFlops)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if cp != s.Stats.CriticalPath || total != s.Stats.TotalFlops {
			t.Fatalf("%s: critical path %v of %v flops, the closure graph's %v of %v", ctx,
				s.Stats.CriticalPath, s.Stats.TotalFlops, cp, total)
		}
		prio, err := oc.closure.BottomLevels(ccm.TaskFlops)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		for id, to := range oc.toG {
			if to >= 0 && (s.Prio[to] != prio[id] || s.Costs.TaskFlops[to] != ccm.TaskFlops[id]) {
				t.Fatalf("%s: %v weighs %v with priority %v, %v and %v in the closure graph", ctx,
					g.Tasks[to], s.Costs.TaskFlops[to], s.Prio[to], ccm.TaskFlops[id], prio[id])
			}
		}
	}
	t.Logf("%d analyses: %d stored tasks, %d closure tasks dropped", analyses, keptTasks, noOps)
	if noOps == 0 {
		t.Fatal("no closure task was dropped: the oracle compared nothing")
	}
}

// TestCycleAfterWalkReported adds U(k,j) → F(k) for the first update of
// each small-suite graph, after Analyze has walked it: every walk of the
// graph must then report the cycle, however often the graph was walked
// before.
func TestCycleAfterWalkReported(t *testing.T) {
	for _, spec := range matgen.SmallSuite() {
		s, err := Analyze(spec.Gen(), nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		g := s.Graph
		if _, err := g.TopoOrder(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		id := g.N // the first update
		if id == g.NumTasks() {
			t.Fatalf("%s: no update task", spec.Name)
		}
		g.Succ[id] = append(g.Succ[id], int32(g.FactorID[g.Tasks[id].K]))
		g.NumEdges++
		_, errTopo := g.TopoOrder()
		_, _, errCP := g.CriticalPath(s.Costs.TaskFlops)
		_, errBL := g.BottomLevels(s.Costs.TaskFlops)
		for i, err := range []error{verify.VerifyDAG(g), errTopo, errCP, errBL} {
			if err == nil || !strings.Contains(err.Error(), "cycle") {
				name := []string{"VerifyDAG", "TopoOrder", "CriticalPath", "BottomLevels"}[i]
				t.Errorf("%s: %s after adding %v → F(%d) returned %v, want the cycle", spec.Name, name, g.Tasks[id], g.Tasks[id].K, err)
			}
		}
	}
}

// tasksOf renders task ids in the paper's notation.
func tasksOf(g *taskgraph.Graph, ids []int32) []taskgraph.Task {
	out := make([]taskgraph.Task, len(ids))
	for i, id := range ids {
		out[i] = g.Tasks[id]
	}
	return out
}
