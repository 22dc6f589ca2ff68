package sched

import "repro/internal/taskgraph"

// Plan exposes the inspector to the external tests, which compare the
// executed schedule of Simulate against the plan it was replayed from.
func Plan(g *taskgraph.Graph, cm *taskgraph.CostModel, m Machine, words func(from, to int) float64, place []int) (seqs [][]int32, start, finish []float64, err error) {
	return plan(g, m.taskSeconds(cm.TaskFlops), m, words, place)
}
