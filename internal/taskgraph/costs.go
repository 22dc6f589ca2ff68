package taskgraph

import (
	"repro/internal/supernode"
	"repro/internal/symbolic"
)

// CostModel estimates the floating-point work of every task from the
// block structure and the supernode partition, in flops. It is used for
// critical-path analytics, for list-scheduling priorities and by the
// discrete-event machine simulator.
type CostModel struct {
	// PanelHeight[k] is the total number of scalar rows of the L panel
	// of block column k (sum of the heights of its blocks at or below
	// the diagonal).
	PanelHeight []int
	// Width[k] is the number of scalar columns of block k.
	Width []int
	// TaskFlops[id] is the estimated flop count of task id.
	TaskFlops []float64
}

// NewCostModel computes the per-task flop estimates for graph g on the
// block structure blockSym, which may be sparser than the one g was
// built on: panel heights are blockSym's, and an Update whose block
// blockSym does not hold costs nothing (the numeric phase returns from
// it at once).
//
//   - Factor(k): partial-pivoting LU of an m×w panel ≈ m·w² flops.
//   - Update(k,j): TRSM with the w_k×w_k diagonal block on a w_k×w_j
//     block (w_k²·w_j) plus the GEMM of the sub-diagonal panel rows
//     (2·(m_k−w_k)·w_k·w_j).
func NewCostModel(g *Graph, blockSym *symbolic.Result, part *supernode.Partition) *CostModel {
	n := blockSym.N
	cm := &CostModel{
		PanelHeight: make([]int, n),
		Width:       make([]int, n),
		TaskFlops:   make([]float64, len(g.Tasks)),
	}
	for k := 0; k < n; k++ {
		cm.Width[k] = part.Size(k)
		h := 0
		for _, i := range blockSym.L.Col(k) {
			h += part.Size(i)
		}
		cm.PanelHeight[k] = h
	}
	for k := 0; k < n; k++ {
		m, w := float64(cm.PanelHeight[k]), float64(cm.Width[k])
		cm.TaskFlops[g.FactorID[k]] = m * w * w
		// The updates sourced at k and the blocks of row k of blockSym's
		// Ū both ascend in destination: one walk pairs them.
		held := blockSym.URows.Col(k)
		for id, hi := g.Updates(k); id < hi; id++ {
			j := g.Tasks[id].J
			for len(held) > 0 && held[0] < j {
				held = held[1:]
			}
			if len(held) == 0 || held[0] != j {
				continue
			}
			wj := float64(cm.Width[j])
			sub := float64(cm.PanelHeight[k] - cm.Width[k])
			cm.TaskFlops[id] = w*w*wj + 2*sub*w*wj
		}
	}
	return cm
}

// TotalFlops returns the summed task flops.
func (cm *CostModel) TotalFlops() float64 {
	var s float64
	for _, f := range cm.TaskFlops {
		s += f
	}
	return s
}
