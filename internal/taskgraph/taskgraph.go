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
//
// New builds them on every block of a structure closed under block-level
// elimination, the paper's graphs. NewStored builds the same graphs
// contracted onto the blocks the numeric phase stores — the tasks of the
// other blocks have nothing to do — and is what the numeric phase runs.
package taskgraph

import (
	"fmt"
	"slices"
	"sort"
	"sync"

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

	// sourceOrdered caches sourceOrder's verdict; Tasks and Succ must not
	// change once a path or order has been asked for.
	sourceOnce    sync.Once
	sourceOrdered bool
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
		for _, j := range offDiagonal(blockSym.URows.Col(k), k) {
			tasks = append(tasks, Task{Kind: Update, K: k, J: j})
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
	id := g.seek(lo, hi, j)
	return id, id < hi && g.Tasks[id].J == j
}

// seek returns the first update id in [from, hi) — a suffix of one
// source's updates — whose destination is at least j, galloping from
// from: a cursor moved through a source's updates this way costs the
// logarithm of each advance, not of the whole list.
func (g *Graph) seek(from, hi, j int) int {
	step := 1
	for from+step <= hi && g.Tasks[from+step-1].J < j {
		from += step
		step *= 2
	}
	end := min(from+step-1, hi)
	return from + sort.Search(end-from, func(t int) bool { return g.Tasks[from+t].J >= j })
}

// New builds the dependence graph of the requested variant over the
// block symbolic structure. For the EForest variant, f must be the LU
// eforest of blockSym (etree.LUForest(blockSym)).
//
// Every out-degree is known before an edge is looked up — F(k) precedes
// the updates it sources, and an update has its one chain successor or,
// sourced at an eforest root, none — so the successor lists are cut
// from one backing array of exactly NumEdges entries.
func New(blockSym *symbolic.Result, f *etree.Forest, v Variant) *Graph {
	if v == EForest && f == nil {
		panic("taskgraph: EForest variant needs the LU eforest")
	}
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
	_, g.NumEdges = ClosureCounts(blockSym, f, v)
	edges := make([]int32, g.NumEdges)
	for i := range g.ChainNext {
		g.ChainNext[i] = -1
	}

	// Shared rule: F(k) → U(k, j) for every update sourced at k.
	at := 0
	for k := 0; k < g.N; k++ {
		lo, hi := g.Updates(k)
		succ := edges[at : at+hi-lo : at+hi-lo]
		for t := range succ {
			succ[t] = int32(lo + t)
		}
		g.Succ[factorID[k]] = succ
		at += hi - lo
	}
	// chain records the one successor of update id: a dependence edge
	// that is also a link of the destination's Theorem-4 update chain.
	chain := func(id, to int) {
		edges[at] = int32(to)
		g.Succ[id] = edges[at : at+1 : at+1]
		g.ChainNext[id] = int32(to)
		at++
	}

	switch v {
	case SStar:
		// Serialize the updates of each destination column by ascending
		// source index, ending at F(j): scanning the sources in
		// descending order, the update last seen for a destination is
		// the next of its chain.
		next := make([]int, g.N)
		copy(next, factorID)
		for k := g.N - 1; k >= 0; k-- {
			for id, hi := g.Updates(k); id < hi; id++ {
				j := tasks[id].J
				chain(id, next[j])
				next[j] = id
			}
		}
	case EForest:
		for k := 0; k < g.N; k++ {
			p := f.Parent[k]
			if p == etree.None {
				// k is a root: its updates touch only rows above their
				// destinations (earlier trees), so nothing waits on them
				// and they block nothing beyond their factor dependence.
				continue
			}
			// The destinations of k's updates ascend, so one cursor walks
			// the parent's updates beside them.
			at, pHi := g.Updates(p)
			for id, hi := g.Updates(k); id < hi; id++ {
				// U(k, j) → U(parent(k), j), and → F(j) when parent(k) = j.
				// Theorem 1 guarantees U(parent, j) exists when the
				// blocked structure is a static fixed point, and ū_kj ≠ 0
				// forces parent(k) ≤ j; the conservative edge to F(j)
				// covers a structure that breaks either.
				j := tasks[id].J
				to := factorID[j]
				if p < j {
					if at = g.seek(at, pHi, j); at < pHi && tasks[at].J == j {
						to = at
					}
				}
				chain(id, to)
			}
		}
	default:
		panic("taskgraph: unknown variant")
	}
	return g
}

// ClosureCounts returns the task and edge counts of New(blockSym, f, v)
// without building it: one F(k) per block column and one U(k, j) per
// off-diagonal block of Ū; F(k) → U(k, j) for each update, and one chain
// edge per update except, under EForest, those sourced at a root.
func ClosureCounts(blockSym *symbolic.Result, f *etree.Forest, v Variant) (tasks, edges int) {
	for k := 0; k < blockSym.N; k++ {
		u := len(offDiagonal(blockSym.URows.Col(k), k))
		tasks += 1 + u
		edges += u
		if v == SStar || f.Parent[k] != etree.None {
			edges += u
		}
	}
	return tasks, edges
}

// offDiagonal returns the destinations of row k of Ū past the diagonal:
// the row ascends from k.
func offDiagonal(row []int, k int) []int {
	if len(row) > 0 && row[0] == k {
		return row[1:]
	}
	return row
}

// NewStored builds the dependence graph of the requested variant on the
// stored blocks: F(k) for every block column, U(k, j) only for the
// off-diagonal blocks of stored's Ū, and ids laid out as New lays them.
// stored must lie inside blockSym, its closure under block-level
// elimination, and f must be blockSym's LU eforest.
//
// The graph is New(blockSym, f, v) contracted onto those tasks — every
// other task of New's graph belongs to a block that is not stored and
// does nothing — without building the closure's tasks:
//
//   - The chain link of U(k, j) is the first stored task down its chain in
//     New's graph. Under EForest that is U(a, j) for the nearest eforest
//     ancestor a < j of k whose block (a, j) is stored, else F(j) — or
//     nothing when the ancestors end at a root below j: Theorem 1 puts
//     every U(a, j) with a < j on the chain. Under SStar it is the update
//     of the next stored source of column j, else F(j).
//   - F(k) keeps its edges to the updates it sources. Under SStar it also
//     gets, for every update of blockSym's row k that is not stored, the
//     first stored task down that update's chain — the exact contraction,
//     one edge per destination. Under EForest it gets only F(parent(k)),
//     when U(k, parent(k)) is not stored: every other such edge is implied
//     by F(k) ≺ F(parent(k)), up the eforest (see DESIGN.md §6).
//
// Reachability among the tasks is New's, so two tasks that touch a
// common stored block stay ordered.
func NewStored(blockSym *symbolic.Result, f *etree.Forest, stored *symbolic.Result, v Variant) *Graph {
	if v == EForest && f == nil {
		panic("taskgraph: EForest variant needs the LU eforest")
	}
	tasks, factorID, updateFirst := buildTasks(stored)
	g := &Graph{
		Variant:     v,
		N:           stored.N,
		Tasks:       tasks,
		FactorID:    factorID,
		updateFirst: updateFirst,
		Succ:        make([][]int32, len(tasks)),
		ChainNext:   make([]int32, len(tasks)),
	}
	switch v {
	case SStar:
		g.contractSStar(blockSym)
	case EForest:
		g.contractEForest(f)
	default:
		panic("taskgraph: unknown variant")
	}
	return g
}

// contractEForest fills the edges of NewStored's EForest graph.
func (g *Graph) contractEForest(f *etree.Forest) {
	parent, tasks := f.Parent, g.Tasks
	for i := 0; i < g.N; i++ {
		g.ChainNext[g.FactorID[i]] = -1
	}
	// dropsParent reports whether U(k, parent(k)), the first update of
	// row k of the closure, is not stored: F(k) then links to F(parent(k)).
	dropsParent := func(k int) bool {
		lo, hi := g.Updates(k)
		return parent[k] != etree.None && (lo == hi || tasks[lo].J != parent[k])
	}
	for k := 0; k < g.N; k++ {
		lo, hi := g.Updates(k)
		g.NumEdges += hi - lo
		if dropsParent(k) {
			g.NumEdges++
		}
		for id := lo; id < hi; id++ {
			j := tasks[id].J
			next := int32(-1)
			a := parent[k]
			for a != etree.None && a < j {
				if up, ok := g.UpdateID(a, j); ok {
					next = int32(up)
					break
				}
				a = parent[a]
			}
			if next < 0 && a != etree.None {
				next = int32(g.FactorID[j]) // a = j, or past it where Theorem 1 fails
			}
			g.ChainNext[id] = next
			if next >= 0 {
				g.NumEdges++
			}
		}
	}
	// The successor lists are cut from one backing array of exactly
	// NumEdges entries: F(k)'s first, in ascending destination, then the
	// chain links.
	edges := make([]int32, 0, g.NumEdges)
	for k := 0; k < g.N; k++ {
		start := len(edges)
		if dropsParent(k) {
			edges = append(edges, int32(g.FactorID[parent[k]]))
		}
		for id, hi := g.Updates(k); id < hi; id++ {
			edges = append(edges, int32(id))
		}
		g.Succ[g.FactorID[k]] = edges[start:len(edges):len(edges)]
	}
	for id, next := range g.ChainNext {
		if next >= 0 {
			edges = append(edges, next)
			g.Succ[id] = edges[len(edges)-1 : len(edges) : len(edges)]
		}
	}
}

// contractSStar fills the edges of NewStored's SStar graph: the sources
// are scanned in descending order, so the stored update last seen in a
// destination column is the next of its chain.
func (g *Graph) contractSStar(blockSym *symbolic.Result) {
	tasks := g.Tasks
	next := make([]int32, g.N)
	for j := range next {
		next[j] = int32(g.FactorID[j])
		g.ChainNext[g.FactorID[j]] = -1
	}
	g.NumEdges = len(tasks) - g.N
	for k := 0; k < g.N; k++ {
		g.NumEdges += len(offDiagonal(blockSym.URows.Col(k), k))
	}
	edges := make([]int32, g.NumEdges)
	at := 0
	for k := 0; k < g.N; k++ {
		m := len(offDiagonal(blockSym.URows.Col(k), k))
		g.Succ[g.FactorID[k]] = edges[at : at+m : at+m]
		at += m
	}
	for k := g.N - 1; k >= 0; k-- {
		succ := g.Succ[g.FactorID[k]]
		id, hi := g.Updates(k)
		for t, j := range offDiagonal(blockSym.URows.Col(k), k) {
			if id < hi && tasks[id].J == j {
				succ[t] = int32(id)
				id++
			} else {
				succ[t] = next[j]
			}
		}
		if id != hi {
			panic(fmt.Sprintf("taskgraph: stored block (%d,%d) is not in the closure", k, tasks[id].J))
		}
		for id, hi := g.Updates(k); id < hi; id++ {
			j := tasks[id].J
			edges[at] = next[j]
			g.Succ[id] = edges[at : at+1 : at+1]
			g.ChainNext[id] = next[j]
			at++
			next[j] = int32(id)
		}
	}
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

// sourceOrder reports whether F(0), U(0,·), F(1), U(1,·), … — source by
// source, as New lays the ids out — is a topological order of g: every
// edge leads from F(k) to an update it sources or on to a later source.
// The graphs of New and Independent are; it is checked, once, because
// Tasks and Succ are exported, and a hand-built or damaged graph must
// get Kahn's algorithm and its cycle report instead.
func (g *Graph) sourceOrder() bool {
	g.sourceOnce.Do(func() {
		// Only New and Independent fill updateFirst, and with it the
		// source-by-source id layout walk relies on.
		if len(g.updateFirst) != g.N+1 || len(g.Tasks) != int(g.updateFirst[g.N]) {
			return
		}
		rank := func(id int32) int { return 2*g.Tasks[id].K + int(g.Tasks[id].Kind) }
		for id, succ := range g.Succ {
			for _, s := range succ {
				if rank(s) <= rank(int32(id)) {
					return
				}
			}
		}
		g.sourceOrdered = true
	})
	return g.sourceOrdered
}

// kahn returns a topological order (sources in ascending id, then first
// released first), or an error if the graph has a cycle.
func (g *Graph) kahn() ([]int32, error) {
	in := g.InDegrees()
	order := make([]int32, 0, len(in))
	for id, d := range in {
		if d == 0 {
			order = append(order, int32(id))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range g.Succ[order[head]] {
			in[s]--
			if in[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != len(in) {
		return nil, fmt.Errorf("taskgraph: cycle detected (%d of %d tasks ordered)", len(order), len(in))
	}
	return order, nil
}

// walk visits every task once, in a topological order or (reverse) in
// the reverse of one: the source order where it is one — no order is
// materialized then — and Kahn's otherwise. It fails on a cycle.
func (g *Graph) walk(reverse bool, visit func(id int32)) error {
	if !g.sourceOrder() {
		order, err := g.kahn()
		if reverse {
			slices.Reverse(order)
		}
		for _, id := range order {
			visit(id)
		}
		return err
	}
	if reverse {
		for k := g.N - 1; k >= 0; k-- {
			for lo, id := g.Updates(k); id > lo; id-- {
				visit(int32(id - 1))
			}
			visit(int32(g.FactorID[k]))
		}
		return nil
	}
	for k := 0; k < g.N; k++ {
		visit(int32(g.FactorID[k]))
		for id, hi := g.Updates(k); id < hi; id++ {
			visit(int32(id))
		}
	}
	return nil
}

// TopoOrder returns a topological order of the tasks, or an error if the
// graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	order := make([]int, 0, len(g.Tasks))
	if err := g.walk(false, func(id int32) { order = append(order, int(id)) }); err != nil {
		return nil, err
	}
	return order, nil
}

// weight returns the cost of task id, 1 under a nil cost vector.
func weight(cost []float64, id int32) float64 {
	if cost == nil {
		return 1
	}
	return cost[id]
}

// CriticalPath returns the length of the longest weighted path through
// the DAG (the lower bound on parallel execution time) and the total
// weight, using cost[id] as the weight of task id. cost may be nil, in
// which case every task weighs 1.
func (g *Graph) CriticalPath(cost []float64) (cp, total float64, err error) {
	finish := make([]float64, len(g.Tasks))
	err = g.walk(false, func(id int32) {
		w := weight(cost, id)
		f := finish[id] + w
		finish[id] = f
		total += w
		if f > cp {
			cp = f
		}
		for _, s := range g.Succ[id] {
			if f > finish[s] {
				finish[s] = f
			}
		}
	})
	if err != nil {
		return 0, 0, err
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
	finish := make([]float64, len(g.Tasks))
	pred := make([]int32, len(g.Tasks))
	for i := range pred {
		pred[i] = -1
	}
	bestID := int32(-1)
	err = g.walk(false, func(id int32) {
		f := finish[id] + weight(cost, id)
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
	})
	if err != nil {
		return nil, 0, err
	}
	for id := bestID; id != -1; id = pred[id] {
		path = append(path, int(id))
	}
	slices.Reverse(path)
	return path, cp, nil
}

// BottomLevels returns, for every task, the weighted length of the
// longest path from the task to any sink, including the task's own
// weight. Scheduling by descending bottom level is the classic
// critical-path list-scheduling priority. cost may be nil for unit
// weights.
func (g *Graph) BottomLevels(cost []float64) ([]float64, error) {
	bl := make([]float64, len(g.Tasks))
	err := g.walk(true, func(id int32) {
		best := 0.0
		for _, s := range g.Succ[id] {
			if bl[s] > best {
				best = bl[s]
			}
		}
		bl[id] = best + weight(cost, id)
	})
	if err != nil {
		return nil, err
	}
	return bl, nil
}

// Independent builds a degenerate dependence graph of n mutually
// independent Factor tasks — no edges, no chains. It lets callers drive
// embarrassingly parallel work (such as the per-subtree symbolic
// eliminations of symbolic.FactorParallel) through the same
// asynchronous executor as the numeric phase.
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
