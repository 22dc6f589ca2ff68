package taskgraph

import "fmt"

// LevelSets computes the level-set (wavefront) schedule of a DAG given
// as successor lists: level(v) is 0 for sources and otherwise one more
// than the maximum level over v's predecessors. It returns the task ids
// ordered level-major — ascending id within each level, so the result
// is deterministic — together with the level offsets: the tasks of
// level l are order[off[l]:off[l+1]]. Tasks within one level are
// mutually independent and every edge points from an earlier level to
// a later one, so a barrier-synchronized execution of the levels
// respects every dependence. An error is returned when succ contains a
// cycle.
//
// This is the schedule shape internal/sched.ExecuteLevels consumes. Its
// one reader is the solve-schedule stage of core.Analyze, kept for
// bench/layers.go; ROADMAP's deletion sweep (the item the bench
// decoupling unlocks) deletes this file.
func LevelSets(succ [][]int32) (order, off []int32, err error) {
	nt := len(succ)
	lvl := make([]int32, nt)
	indeg := make([]int32, nt)
	for _, ss := range succ {
		for _, s := range ss {
			indeg[s]++
		}
	}
	queue := make([]int32, 0, nt)
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(v))
		}
	}
	maxLvl := int32(-1)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if lvl[v] > maxLvl {
			maxLvl = lvl[v]
		}
		for _, s := range succ[v] {
			if l := lvl[v] + 1; l > lvl[s] {
				lvl[s] = l
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(queue) != nt {
		return nil, nil, fmt.Errorf("taskgraph: dependence graph has a cycle (%d of %d tasks leveled)", len(queue), nt)
	}

	// Counting sort by level; scanning v ascending keeps ids ascending
	// within each level.
	off = make([]int32, maxLvl+2)
	for _, l := range lvl {
		off[l+1]++
	}
	for l := 1; l < len(off); l++ {
		off[l] += off[l-1]
	}
	fill := make([]int32, len(off))
	copy(fill, off)
	order = make([]int32, nt)
	for v := 0; v < nt; v++ {
		order[fill[lvl[v]]] = int32(v)
		fill[lvl[v]]++
	}
	return order, off, nil
}
