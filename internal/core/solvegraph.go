package core

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
)

// The parallel triangular solves decompose each sweep into one task per
// block column, mirroring the serial loop bodies exactly. The forward
// task of column k replays panel k's interchanges, solves the
// unit-lower diagonal block and scatters the Dgemv/Dgemm updates into
// the sub-diagonal block rows — so it reads and writes exactly the
// block rows of L̄'s column k (interchanges stay inside the panel's
// static row set, which spans those same blocks). The backward task
// solves the upper diagonal block and scatters into the block rows of
// Ū's column k.
//
// Two tasks conflict precisely when they touch a common block row, and
// the serial sweep orders all tasks touching a given row by ascending
// (forward) respectively descending (backward) column. Chaining, per
// block row, each pair of consecutively-touching columns in that order
// therefore yields a DAG whose every topological execution applies the
// operations on each memory location in the serial order. Updates to
// disjoint rows commute exactly in floating point, so any level
// schedule of these chains is bitwise identical to the serial sweep at
// every worker count. Parallelism comes from the block upper triangular
// form: columns in independent eforest subtrees share no L̄ block rows
// (the paper's disjoint-row-sets argument), so whole subtrees land in
// overlapping levels.

// solveSchedules derives the level-set schedules of the forward (L̄)
// and backward (Ū) triangular sweeps from the stored block structure —
// the block rows the sweep steps iterate. The transpose sweeps use the
// Reversed() schedules: the transpose tasks touch the same block-row
// sets in the opposite column order, which is exactly the edge-reversed
// DAG.
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
