// Package verify machine-checks the structural theorems the paper's
// parallel factorization rests on. The checks are pure functions over
// the analysis structures, cheap enough to wire into test suites and —
// behind the core.Options.Verify debug flag — into the analysis
// pipeline itself:
//
//   - VerifyDAG: the task dependence graph is a well-formed acyclic
//     graph whose task table, edge lists and id indices agree.
//   - VerifyLeastDependences: the eforest-guided graph, on every block
//     or on the stored ones, contains exactly the least necessary
//     dependences of Theorem 4 — U(k,j) → U(a,j) for the nearest eforest
//     ancestor a of k with an update in column j, U(k,j) → F(j) when the
//     ancestors reach j first, no edge between independent subtrees, and
//     no required edge missing.
//   - VerifyStoredBlocks: the blocks the numeric phase stores are the
//     block pattern of Ā, lie inside the block-level closure the task
//     graph is contracted from, and leave out no target of two scalar
//     entries.
//   - VerifyPostorderInvariance: postordering the LU eforest leaves the
//     static symbolic factorization invariant up to relabeling
//     (Theorems 1–3): refactoring the symmetrically permuted matrix
//     yields exactly the relabeled L̄ and Ū patterns.
package verify

import (
	"fmt"

	"repro/internal/etree"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
)

// VerifyDAG checks that g is a structurally consistent acyclic task
// graph: the id indices (FactorID, Updates/UpdateID) agree with the task
// table, every edge stays in range without self-loops or duplicates,
// NumEdges matches the adjacency, and a topological order exists.
func VerifyDAG(g *taskgraph.Graph) error {
	nt := g.NumTasks()
	if len(g.Succ) != nt {
		return fmt.Errorf("verify: %d tasks but %d adjacency lists", nt, len(g.Succ))
	}
	if len(g.FactorID) != g.N {
		return fmt.Errorf("verify: %d block columns but %d factor ids", g.N, len(g.FactorID))
	}
	for k, id := range g.FactorID {
		if id < 0 || id >= nt {
			return fmt.Errorf("verify: FactorID[%d] = %d out of range", k, id)
		}
		if t := g.Tasks[id]; t.Kind != taskgraph.Factor || t.K != k {
			return fmt.Errorf("verify: FactorID[%d] points at task %v", k, t)
		}
	}
	// The update ranges tile the tasks after the factors, source by
	// source, each in ascending destination order — what UpdateID's
	// search relies on.
	next := g.N
	for k := 0; k < g.N; k++ {
		lo, hi := g.Updates(k)
		if lo != next || hi < lo || hi > nt {
			return fmt.Errorf("verify: Updates(%d) = [%d, %d), expected to start at %d within %d tasks", k, lo, hi, next, nt)
		}
		next = hi
		for id := lo; id < hi; id++ {
			t := g.Tasks[id]
			if t.Kind != taskgraph.Update || t.K != k || t.J <= k || (id > lo && t.J <= g.Tasks[id-1].J) {
				return fmt.Errorf("verify: Updates(%d) holds task %v at id %d, out of place", k, t, id)
			}
		}
	}
	if next != nt {
		return fmt.Errorf("verify: Updates covers tasks up to %d of %d", next, nt)
	}
	edges := 0
	seen := make(map[[2]int]bool)
	for id, succ := range g.Succ {
		for _, s := range succ {
			if int(s) < 0 || int(s) >= nt {
				return fmt.Errorf("verify: edge %v → %d out of range", g.Tasks[id], s)
			}
			if int(s) == id {
				return fmt.Errorf("verify: self-loop on task %v", g.Tasks[id])
			}
			key := [2]int{id, int(s)}
			if seen[key] {
				return fmt.Errorf("verify: duplicate edge %v → %v", g.Tasks[id], g.Tasks[s])
			}
			seen[key] = true
			edges++
		}
	}
	if edges != g.NumEdges {
		return fmt.Errorf("verify: NumEdges = %d but adjacency holds %d edges", g.NumEdges, edges)
	}
	if _, err := g.TopoOrder(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// VerifyLeastDependences checks Theorem 4 on an eforest-guided graph
// against the LU eforest f of the block structure the graph was built
// on: every task's successors are exactly the least dependences. The
// graph may hold an update for every block of that structure (New) or
// for a subset of them (NewStored, on the stored blocks); either way
//
//   - F(k) precedes the updates it sources, and F(parent(k)) when
//     U(k, parent(k)) is not a task;
//   - U(k, j) precedes U(a, j) for the nearest eforest ancestor a < j of k
//     whose update is a task, else F(j) when the ancestors reach j, and
//     nothing when they end at a root below j.
//
// On a graph over the whole structure Theorem 1 makes U(parent(k), j)
// exist whenever parent(k) < j, so the rule reduces to the paper's
// (U(k,j) → U(parent(k),j), U(k,j) → F(j) when parent(k) = j, no edge
// between independent subtrees). An ancestor chain that passes over j —
// what New's conservative fallback edge covers — is reported as a
// violation, because on the pipeline's structures Theorem 1 guarantees it
// never occurs.
func VerifyLeastDependences(g *taskgraph.Graph, f *etree.Forest) error {
	if g.Variant != taskgraph.EForest {
		return fmt.Errorf("verify: graph variant is %v, not eforest", g.Variant)
	}
	if f.Len() != g.N {
		return fmt.Errorf("verify: forest over %d nodes, graph over %d block columns", f.Len(), g.N)
	}
	// require lists the successors the rule asks of one task; check
	// compares them with the task's as sets, each successor consuming the
	// mark of one required task, so a repeated edge cannot stand in for a
	// missing one.
	var require []int
	mark := make([]bool, g.NumTasks())
	check := func(id int) error {
		from := g.Tasks[id]
		if len(g.Succ[id]) != len(require) {
			return fmt.Errorf("verify: %v has %d successors, Theorem 4 requires %d (%v)", from, len(g.Succ[id]), len(require), tasksOf(g, require))
		}
		for _, want := range require {
			mark[want] = true
		}
		bad := int32(-1)
		for _, s := range g.Succ[id] {
			if !mark[s] && bad < 0 {
				bad = s
			}
			mark[s] = false
		}
		for _, want := range require {
			mark[want] = false
		}
		if bad >= 0 {
			return fmt.Errorf("verify: edge %v → %v is not a least dependence; Theorem 4 requires %v", from, g.Tasks[bad], tasksOf(g, require))
		}
		return nil
	}
	for k := 0; k < g.N; k++ {
		p := f.Parent[k]
		lo, hi := g.Updates(k)
		require = require[:0]
		if p != etree.None {
			if _, ok := g.UpdateID(k, p); !ok {
				require = append(require, g.FactorID[p])
			}
		}
		for id := lo; id < hi; id++ {
			require = append(require, id)
		}
		if err := check(g.FactorID[k]); err != nil {
			return err
		}
		for id := lo; id < hi; id++ {
			j := g.Tasks[id].J
			require = require[:0]
			a := p
			for a != etree.None && a < j {
				if up, ok := g.UpdateID(a, j); ok {
					require = append(require, up)
					break
				}
				a = f.Parent[a]
			}
			switch {
			case len(require) > 0 || a == etree.None:
			case a == j:
				require = append(require, g.FactorID[j])
			default:
				return fmt.Errorf("verify: the eforest ancestors of %d pass over %d to %d though ū(%d,%d) ≠ 0", k, j, a, k, j)
			}
			if err := check(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// tasksOf renders task ids in the paper's notation.
func tasksOf(g *taskgraph.Graph, ids []int) []taskgraph.Task {
	out := make([]taskgraph.Task, len(ids))
	for i, id := range ids {
		out[i] = g.Tasks[id]
	}
	return out
}

// VerifyPostorderInvariance checks Theorems 1–3: let perm be the
// postorder of the LU eforest f of sym, where sym is the static
// symbolic factorization of a. Then the static symbolic factorization
// of the symmetrically permuted matrix P·A·Pᵀ must equal the relabeled
// sym — identical L̄ and Ū patterns, hence identical fill — and the
// relabeled forest must be post-ordered. The check refactors the
// permuted matrix from scratch, so it costs one extra symbolic
// factorization.
func VerifyPostorderInvariance(a *sparse.CSC, sym *symbolic.Result, f *etree.Forest) error {
	if a.NCols != sym.N || f.Len() != sym.N {
		return fmt.Errorf("verify: matrix order %d, symbolic order %d, forest size %d", a.NCols, sym.N, f.Len())
	}
	perm := f.PostOrder()
	relabeled := etree.PermuteSymbolic(sym, perm)
	if !f.Relabel(perm).IsPostOrdered() {
		return fmt.Errorf("verify: relabeled eforest is not post-ordered")
	}
	refactored, err := symbolic.Factor(a.PermuteSym(perm))
	if err != nil {
		return fmt.Errorf("verify: refactoring the postordered matrix: %w", err)
	}
	if err := patternsEqual("postordered L̄ (Theorem 3)", relabeled.L, refactored.L); err != nil {
		return err
	}
	if err := patternsEqual("postordered Ū (Theorem 3)", relabeled.UCols(), refactored.UCols()); err != nil {
		return err
	}
	if relabeled.NNZ() != refactored.NNZ() {
		return fmt.Errorf("verify: fill changed under postordering: %d vs %d", relabeled.NNZ(), refactored.NNZ())
	}
	return nil
}

// VerifyStoredBlocks checks what lets the numeric phase store and
// update only the blocks of Ā while it is scheduled by their block-level
// closure: stored is exactly the block pattern of sym under part; it is
// contained in closure, so the task graph contracted from the closure's
// orders every two tasks that touch a common stored block; and wherever blocks (I,K) and (K,J) with
// I > K < J are stored and (I,J) is not, no scalar pair (i,k) ∈ L̄,
// (k,j) ∈ Ū lies inside them — the skipped update would only multiply
// structural zeros.
func VerifyStoredBlocks(sym *symbolic.Result, part *supernode.Partition, stored, closure *symbolic.Result) error {
	want := symbolic.FromPattern(supernode.BlockPattern(sym, part))
	if err := patternsEqual("stored L blocks", want.L, stored.L); err != nil {
		return err
	}
	if err := patternsEqual("stored U blocks", want.UCols(), stored.UCols()); err != nil {
		return err
	}
	if !sparse.PatternContains(closure.L, stored.L) || !sparse.PatternContains(closure.URows, stored.URows) {
		return fmt.Errorf("verify: a stored block is missing from the block-level closure")
	}
	// Rows and columns ascend and so do their blocks: comparing with the
	// block seen last skips block K itself and visits each block pair of
	// step k once.
	for k := 0; k < sym.N; k++ {
		bk := part.ColToBlock[k]
		lastI := bk
		for _, i := range sym.L.Col(k) {
			bi := part.ColToBlock[i]
			if bi == lastI {
				continue
			}
			lastI = bi
			lastJ := bk
			for _, j := range sym.URows.Col(k) {
				bj := part.ColToBlock[j]
				if bj == lastJ {
					continue
				}
				lastJ = bj
				if (bi >= bj && !stored.L.Has(bi, bj)) || (bi < bj && !stored.URows.Has(bj, bi)) {
					return fmt.Errorf("verify: blocks (%d,%d) and (%d,%d) hold l̄(%d,%d) and ū(%d,%d) but block (%d,%d) is not stored",
						bi, bk, bk, bj, i, k, k, j, bi, bj)
				}
			}
		}
	}
	return nil
}

// patternsEqual compares two sparsity patterns entry for entry and
// reports the first differing column.
func patternsEqual(name string, want, got *sparse.Pattern) error {
	if want.NRows != got.NRows || want.NCols != got.NCols {
		return fmt.Errorf("verify: %s dimensions differ: %d×%d vs %d×%d",
			name, want.NRows, want.NCols, got.NRows, got.NCols)
	}
	for j := 0; j < want.NCols; j++ {
		wc, gc := want.Col(j), got.Col(j)
		if len(wc) != len(gc) {
			return fmt.Errorf("verify: %s column %d has %d entries, expected %d",
				name, j, len(gc), len(wc))
		}
		for t := range wc {
			if wc[t] != gc[t] {
				return fmt.Errorf("verify: %s column %d differs at position %d: row %d vs %d",
					name, j, t, gc[t], wc[t])
			}
		}
	}
	return nil
}
