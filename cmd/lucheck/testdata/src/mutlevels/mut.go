// Package mutlevels is a mutation fixture: the taskgraph level-set
// construction with its deterministic ordering removed. Bucketing
// tasks by ranging over the depth map puts each level's tasks in
// randomized order — exactly the schedule bug the nondet-source rule
// exists to catch, at its source. The test asserts the rule detects
// this mutant.
package mutlevels

// LevelSets mirrors the real taskgraph shape.
type LevelSets struct {
	Levels []int
	Tasks  []int
}

// BuildFromDepth is the mutated constructor: task IDs enter the
// schedule in map-iteration order.
func BuildFromDepth(depth map[int]int, nlev int) *LevelSets {
	ls := &LevelSets{}
	for lev := 0; lev < nlev; lev++ {
		for id, d := range depth { // want nondet-source
			if d == lev {
				ls.Tasks = append(ls.Tasks, id)
			}
		}
		ls.Levels = append(ls.Levels, len(ls.Tasks))
	}
	return ls
}
