package taskgraph

import "testing"

// levelOf maps each task to its level index given the (order, off)
// encoding returned by LevelSets.
func levelOf(order, off []int32, n int) []int {
	lvl := make([]int, n)
	for l := 0; l+1 < len(off); l++ {
		for i := off[l]; i < off[l+1]; i++ {
			lvl[order[i]] = l
		}
	}
	return lvl
}

func TestLevelSetsHandDAG(t *testing.T) {
	// 0 → 2, 1 → 2, 2 → 3, 1 → 4; 5 isolated.
	//
	// level 0: {0, 1, 5}; level 1: {2, 4}; level 2: {3}
	succ := [][]int32{{2}, {2, 4}, {3}, {}, {}, {}}
	order, off, err := LevelSets(succ)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(succ) {
		t.Fatalf("order has %d entries, want %d", len(order), len(succ))
	}
	wantOff := []int32{0, 3, 5, 6}
	if len(off) != len(wantOff) {
		t.Fatalf("off = %v, want %v", off, wantOff)
	}
	for i := range wantOff {
		if off[i] != wantOff[i] {
			t.Fatalf("off = %v, want %v", off, wantOff)
		}
	}
	wantOrder := []int32{0, 1, 5, 2, 4, 3}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v (ids must be ascending within each level)", order, wantOrder)
		}
	}
}

// TestLevelSetsEdgesCrossLevels checks the defining property on a
// denser random-ish DAG: every edge goes from a strictly earlier level
// to a strictly later one, and each task appears exactly once.
func TestLevelSetsEdgesCrossLevels(t *testing.T) {
	const n = 200
	succ := make([][]int32, n)
	// Deterministic DAG: edges only v → w with w > v.
	for v := 0; v < n; v++ {
		for _, d := range []int{1, 3, 7, 31} {
			if w := v + d*(v%3+1); w < n {
				succ[v] = append(succ[v], int32(w))
			}
		}
	}
	order, off, err := LevelSets(succ)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, n)
	for _, id := range order {
		seen[id]++
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d appears %d times in the order", v, c)
		}
	}
	lvl := levelOf(order, off, n)
	for v := range succ {
		for _, w := range succ[v] {
			if lvl[w] <= lvl[v] {
				t.Fatalf("edge %d(level %d) → %d(level %d) does not cross to a later level", v, lvl[v], w, lvl[w])
			}
		}
	}
}

func TestLevelSetsCycle(t *testing.T) {
	succ := [][]int32{{1}, {2}, {0}}
	if _, _, err := LevelSets(succ); err == nil {
		t.Fatal("LevelSets accepted a cyclic graph")
	}
}

func TestLevelSetsEmpty(t *testing.T) {
	order, off, err := LevelSets(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 0 || len(off) != 1 || off[0] != 0 {
		t.Fatalf("empty graph: order=%v off=%v, want empty order and off=[0]", order, off)
	}
}
