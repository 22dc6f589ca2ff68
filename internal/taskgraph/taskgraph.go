// Package taskgraph builds the task dependence graphs that drive the
// parallel numeric factorization. The tasks follow S* (Section 4 of the
// paper): Factor(k) factorizes block column k including its pivot
// search, and Update(k, j) applies block column k to block column j
// (k < j, B̄_kj ≠ 0).
//
// Two dependence structures are provided over the same task set:
//
//   - SStar: the baseline used in the S* environment — the updates of a
//     destination column are serialized in ascending source order.
//   - EForest: the paper's contribution — only the least necessary
//     dependences, derived from the LU elimination forest of the block
//     matrix (Theorem 4): U(i,k) → U(i',k) when i' = parent(i), U(i,k) →
//     F(k) when parent(i) = k, and no dependence at all between updates
//     coming from independent subtrees.
package taskgraph

import (
	"fmt"
	"sort"

	"repro/internal/etree"
	"repro/internal/symbolic"
)

// Kind distinguishes factor and update tasks.
type Kind uint8

const (
	// Factor is the task F(k): factorize block column k.
	Factor Kind = iota
	// Update is the task U(k, j): update block column j with column k.
	Update
)

// Task is one node of the dependence graph.
type Task struct {
	Kind Kind
	// K is the block column being factored (Factor) or the source block
	// column (Update).
	K int
	// J is the destination block column of an Update; unused for Factor.
	J int
}

// String renders the task in the paper's notation.
func (t Task) String() string {
	if t.Kind == Factor {
		return fmt.Sprintf("F(%d)", t.K)
	}
	return fmt.Sprintf("U(%d,%d)", t.K, t.J)
}

// Variant selects which dependence structure to build.
type Variant int

const (
	// SStar is the baseline dependence graph of the S* environment.
	SStar Variant = iota
	// EForest is the paper's elimination-forest-guided graph.
	EForest
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case SStar:
		return "S*"
	case EForest:
		return "eforest"
	}
	return "unknown"
}

// Graph is a task dependence DAG.
type Graph struct {
	Variant Variant
	N       int // number of block columns
	Tasks   []Task
	// FactorID[k] is the task id of F(k).
	FactorID []int
	// updateFirst[k] is the task id of the first update sourced at block
	// k. The updates of one source are numbered consecutively in
	// ascending destination order, so U(k, ·) are the ids
	// updateFirst[k] … updateFirst[k+1]−1 (see Updates, UpdateID).
	updateFirst []int32
	// Succ[id] lists the successor task ids of task id.
	Succ [][]int32
	// ChainNext[id] is the next task of id's per-destination update
	// chain (Theorem 4): for an Update task it is the same-destination
	// successor the variant serializes it against — the next update of
	// the chain, or F(j) when the update is last — and -1 when the task
	// has no chain successor (Factor tasks, and EForest updates whose
	// source is an elimination-forest root). Every chain link is also a
	// dependence edge in Succ, which is what lets an asynchronous
	// executor release chain successors strictly in order by obeying the
	// dependence counters alone.
	ChainNext []int32
	// NumEdges is the total number of dependence edges.
	NumEdges int
}

// buildTasks lays out the task set shared by both variants: one F(k) per
// block column, then one U(k, j) per off-diagonal block of Ū, source by
// source in ascending destination order.
func buildTasks(blockSym *symbolic.Result) (tasks []Task, factorID []int, updateFirst []int32) {
	n := blockSym.N
	tasks = make([]Task, 0, blockSym.URows.NNZ())
	factorID = make([]int, n)
	updateFirst = make([]int32, n+1)
	for k := 0; k < n; k++ {
		factorID[k] = len(tasks)
		tasks = append(tasks, Task{Kind: Factor, K: k})
	}
	for k := 0; k < n; k++ {
		updateFirst[k] = int32(len(tasks))
		for _, j := range blockSym.URows.Col(k) { // sorted, row[0] == k
			if j != k {
				tasks = append(tasks, Task{Kind: Update, K: k, J: j})
			}
		}
	}
	updateFirst[n] = int32(len(tasks))
	return tasks, factorID, updateFirst
}

// Updates returns the id range [lo, hi) of the update tasks sourced at
// block k; their destinations Tasks[id].J ascend with id.
func (g *Graph) Updates(k int) (lo, hi int) {
	return int(g.updateFirst[k]), int(g.updateFirst[k+1])
}

// UpdateID returns the task id of U(k, j) and whether that task exists.
func (g *Graph) UpdateID(k, j int) (int, bool) {
	lo, hi := g.Updates(k)
	id := lo + sort.Search(hi-lo, func(t int) bool { return g.Tasks[lo+t].J >= j })
	return id, id < hi && g.Tasks[id].J == j
}

// New builds the dependence graph of the requested variant over the
// block symbolic structure. For the EForest variant, f must be the LU
// eforest of blockSym (etree.LUForest(blockSym)).
func New(blockSym *symbolic.Result, f *etree.Forest, v Variant) *Graph {
	tasks, factorID, updateFirst := buildTasks(blockSym)
	g := &Graph{
		Variant:     v,
		N:           blockSym.N,
		Tasks:       tasks,
		FactorID:    factorID,
		updateFirst: updateFirst,
		Succ:        make([][]int32, len(tasks)),
		ChainNext:   make([]int32, len(tasks)),
	}
	for i := range g.ChainNext {
		g.ChainNext[i] = -1
	}
	addEdge := func(from, to int) {
		g.Succ[from] = append(g.Succ[from], int32(to))
		g.NumEdges++
	}
	// addChainEdge adds a dependence edge that is also a link of the
	// destination's Theorem-4 update chain.
	addChainEdge := func(from, to int) {
		addEdge(from, to)
		g.ChainNext[from] = int32(to)
	}

	// Shared rule: F(k) → U(k, j) for every update sourced at k.
	for k := 0; k < g.N; k++ {
		for id, hi := g.Updates(k); id < hi; id++ {
			addEdge(factorID[k], id)
		}
	}

	switch v {
	case SStar:
		// Serialize the updates of each destination column by ascending
		// source index, ending at F(j).
		incoming := make([][]int, g.N) // dest column -> update ids in source order
		for k := 0; k < g.N; k++ {
			for id, hi := g.Updates(k); id < hi; id++ {
				j := tasks[id].J
				incoming[j] = append(incoming[j], id)
			}
		}
		// Sources were scanned in ascending k, so each incoming list is
		// already in ascending source order.
		for j := 0; j < g.N; j++ {
			chain := incoming[j]
			for t := 1; t < len(chain); t++ {
				addChainEdge(chain[t-1], chain[t])
			}
			if len(chain) > 0 {
				addChainEdge(chain[len(chain)-1], factorID[j])
			}
		}
	case EForest:
		if f == nil {
			panic("taskgraph: EForest variant needs the LU eforest")
		}
		for k := 0; k < g.N; k++ {
			for id, hi := g.Updates(k); id < hi; id++ {
				j := tasks[id].J
				p := f.Parent[k]
				switch {
				case p == etree.None:
					// k is a root: the update touches only rows above j
					// (earlier trees), so nothing waits on it and it
					// blocks nothing beyond its own factor dependence.
				case p == j:
					addChainEdge(id, factorID[j])
				case p < j:
					if nid, ok := g.UpdateID(p, j); ok {
						addChainEdge(id, nid)
					} else {
						// Theorem 1 guarantees U(parent, j) exists when
						// the blocked structure is a static fixed point;
						// fall back to the conservative edge otherwise.
						addChainEdge(id, factorID[j])
					}
				default:
					// parent(k) > j cannot happen: ū_kj ≠ 0 forces
					// parent(k) ≤ j. Be conservative if it does.
					addChainEdge(id, factorID[j])
				}
			}
		}
	default:
		panic("taskgraph: unknown variant")
	}
	return g
}

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.Tasks) }

// InDegrees computes the number of predecessors of every task.
func (g *Graph) InDegrees() []int {
	in := make([]int, len(g.Tasks))
	for _, succ := range g.Succ {
		for _, s := range succ {
			in[s]++
		}
	}
	return in
}

// TopoOrder returns a topological order of the tasks, or an error if the
// graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	in := g.InDegrees()
	queue := make([]int, 0, len(in))
	for id, d := range in {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	order := make([]int, 0, len(in))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range g.Succ[id] {
			in[s]--
			if in[s] == 0 {
				queue = append(queue, int(s))
			}
		}
	}
	if len(order) != len(in) {
		return nil, fmt.Errorf("taskgraph: cycle detected (%d of %d tasks ordered)", len(order), len(in))
	}
	return order, nil
}

// CriticalPath returns the length of the longest weighted path through
// the DAG (the lower bound on parallel execution time) and the total
// weight, using cost[id] as the weight of task id. cost may be nil, in
// which case every task weighs 1.
func (g *Graph) CriticalPath(cost []float64) (cp, total float64, err error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, 0, err
	}
	w := func(id int) float64 {
		if cost == nil {
			return 1
		}
		return cost[id]
	}
	finish := make([]float64, len(g.Tasks))
	for _, id := range order {
		f := finish[id] + w(id)
		finish[id] = f
		total += w(id)
		if f > cp {
			cp = f
		}
		for _, s := range g.Succ[id] {
			if f > finish[s] {
				finish[s] = f
			}
		}
	}
	return cp, total, nil
}

// CriticalPathTasks returns one longest weighted path through the graph
// as an explicit task sequence, together with its length. Ties are
// broken toward smaller task ids, so the path is deterministic. cost may
// be nil for unit weights. The result is the *predicted* critical path;
// internal/trace computes the realized one from an execution, and
// comparing the two shows how much of the predicted chain the scheduler
// actually serialized on.
func (g *Graph) CriticalPathTasks(cost []float64) (path []int, cp float64, err error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	w := func(id int) float64 {
		if cost == nil {
			return 1
		}
		return cost[id]
	}
	finish := make([]float64, len(g.Tasks))
	pred := make([]int, len(g.Tasks))
	for i := range pred {
		pred[i] = -1
	}
	bestID := -1
	for _, id := range order {
		f := finish[id] + w(id)
		finish[id] = f
		if f > cp || (f == cp && (bestID == -1 || id < bestID)) {
			cp, bestID = f, id
		}
		for _, s := range g.Succ[id] {
			if f > finish[s] || (f == finish[s] && (pred[s] == -1 || id < pred[s])) {
				finish[s] = f
				pred[s] = id
			}
		}
	}
	for id := bestID; id != -1; id = pred[id] {
		path = append(path, id)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, cp, nil
}

// BottomLevels returns, for every task, the weighted length of the
// longest path from the task to any sink, including the task's own
// weight. Scheduling by descending bottom level is the classic
// critical-path list-scheduling priority. cost may be nil for unit
// weights.
func (g *Graph) BottomLevels(cost []float64) ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	w := func(id int) float64 {
		if cost == nil {
			return 1
		}
		return cost[id]
	}
	bl := make([]float64, len(g.Tasks))
	for t := len(order) - 1; t >= 0; t-- {
		id := order[t]
		best := 0.0
		for _, s := range g.Succ[id] {
			if bl[s] > best {
				best = bl[s]
			}
		}
		bl[id] = best + w(id)
	}
	return bl, nil
}

// AvgParallelism is total work divided by the critical path — the
// upper bound on useful processors.
func (g *Graph) AvgParallelism(cost []float64) float64 {
	cp, total, err := g.CriticalPath(cost)
	if err != nil || cp == 0 {
		return 0
	}
	return total / cp
}

// Independent builds a degenerate dependence graph of n mutually
// independent Factor tasks — no edges, no chains. It lets callers drive
// embarrassingly parallel work (such as the per-subtree symbolic
// eliminations of the parallel analysis) through the same asynchronous
// executor as the numeric phase.
func Independent(n int) *Graph {
	g := &Graph{
		Variant:     EForest,
		N:           n,
		Tasks:       make([]Task, n),
		FactorID:    make([]int, n),
		updateFirst: make([]int32, n+1),
		Succ:        make([][]int32, n),
		ChainNext:   make([]int32, n),
	}
	for k := 0; k < n; k++ {
		g.Tasks[k] = Task{Kind: Factor, K: k}
		g.FactorID[k] = k
		g.ChainNext[k] = -1
	}
	for k := range g.updateFirst {
		g.updateFirst[k] = int32(n)
	}
	return g
}
