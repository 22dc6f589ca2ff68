package symbolic

import (
	"repro/internal/sparse"
)

// Partition is PartitionColumns' result. The symbolic factorization is
// serial (DESIGN.md §15), so none is ever built.
//
// Deprecated: kept only because the benchmark calls PartitionColumns.
type Partition struct{}

// PartitionColumns returns nil, the answer for "no useful parallelism":
// the symbolic factorization is serial.
//
// Deprecated: kept only because the benchmark calls it by name.
func PartitionColumns(a *sparse.CSC, workers int) *Partition { return nil }

// FactorParallel returns Factor(a) and never calls runner.
//
// Deprecated: the symbolic factorization is serial (DESIGN.md §15); it
// stays only while the benchmark's symbolic.factor_par_s times it.
func FactorParallel(a *sparse.CSC, workers int, runner func(ntasks int, run func(i int) error) error) (*Result, error) {
	return Factor(a)
}
