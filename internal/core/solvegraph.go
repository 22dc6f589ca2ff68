package core

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
)

// The solves are serial sweeps (DESIGN §11). This file builds the
// conflict-chain level schedules of those sweeps: per block row, the
// block columns that touch it are chained in sweep order, so any level
// schedule of the chains repeats the serial sweep bitwise. Only
// bench/layers.go reads them (sched.levels_ns_per_task); ROADMAP's
// deletion sweep (the item the bench decoupling unlocks) deletes this
// file.

// solveSchedules derives the level-set schedules of the forward (L̄)
// and backward (Ū) triangular sweeps from the stored block structure —
// the block rows the sweep steps iterate.
func solveSchedules(stored *symbolic.Result) (fwd, bwd *sched.Levels, err error) {
	nb := stored.N
	order, off, err := taskgraph.LevelSets(chainByRow(nb, stored.L, false))
	if err != nil {
		return nil, nil, fmt.Errorf("core: forward solve schedule: %w", err)
	}
	fwd = sched.NewLevels(order, off)
	order, off, err = taskgraph.LevelSets(chainByRow(nb, stored.U, true))
	if err != nil {
		return nil, nil, fmt.Errorf("core: backward solve schedule: %w", err)
	}
	bwd = sched.NewLevels(order, off)
	return fwd, bwd, nil
}

// chainByRow builds the conflict-chain successor lists of one sweep:
// for every block row, the columns whose pattern contains that row are
// linked pairwise in sweep order (ascending column for the forward
// sweep, descending for the backward one). Only consecutive pairs are
// linked — transitivity supplies the rest — so the edge count is
// bounded by the block pattern's nonzeros.
func chainByRow(nb int, pat *sparse.Pattern, descending bool) [][]int32 {
	succ := make([][]int32, nb)
	prev := make([]int32, nb) // last column seen touching each block row
	for i := range prev {
		prev[i] = -1
	}
	step := func(k int) {
		for _, i := range pat.Col(k) {
			if p := prev[i]; p >= 0 {
				// Rows of one column are visited together, so duplicate
				// (p, k) edges arrive adjacently; keep one.
				if s := succ[p]; len(s) == 0 || s[len(s)-1] != int32(k) {
					succ[p] = append(succ[p], int32(k))
				}
			}
			prev[i] = int32(k)
		}
	}
	if descending {
		for k := nb - 1; k >= 0; k-- {
			step(k)
		}
	} else {
		for k := 0; k < nb; k++ {
			step(k)
		}
	}
	return succ
}
