package symbolic_test

import (
	"testing"

	"repro/internal/matgen"
	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// orderedSuite yields the small-suite matrices after the same
// fill-reducing ordering core.Analyze applies before its symbolic
// stage.
func orderedSuite() []matgen.Spec {
	specs := matgen.SmallSuite()
	out := make([]matgen.Spec, len(specs))
	for i, spec := range specs {
		gen := spec.Gen
		out[i] = matgen.Spec{Name: spec.Name, Domain: spec.Domain, Gen: func() *sparse.CSC {
			a := gen()
			return a.PermuteSym(ordering.ColumnOrdering(a, ordering.MinDegreeATA))
		}}
	}
	return out
}

// equalResult compares two symbolic Results entry for entry.
func equalResult(t *testing.T, name string, a, b *symbolic.Result) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("%s: N %d vs %d", name, a.N, b.N)
	}
	cmp := func(what string, p, q *sparse.Pattern) {
		if len(p.ColPtr) != len(q.ColPtr) || len(p.RowInd) != len(q.RowInd) {
			t.Fatalf("%s: %s size mismatch", name, what)
		}
		for i := range p.ColPtr {
			if p.ColPtr[i] != q.ColPtr[i] {
				t.Fatalf("%s: %s ColPtr[%d] = %d vs %d", name, what, i, p.ColPtr[i], q.ColPtr[i])
			}
		}
		for i := range p.RowInd {
			if p.RowInd[i] != q.RowInd[i] {
				t.Fatalf("%s: %s RowInd[%d] = %d vs %d", name, what, i, p.RowInd[i], q.RowInd[i])
			}
		}
	}
	cmp("L", a.L, b.L)
	cmp("URows", a.URows, b.URows)
}

// TestFactorParallelIsFactor: FactorParallel is Factor, entry for
// entry, at every worker count, and never calls its runner, and
// PartitionColumns finds no partition — over the ordered small suite,
// whose bushy column etrees a subtree partition would cut. The
// benchmark's traced symbolic.factor_par_s counts on the first.
func TestFactorParallelIsFactor(t *testing.T) {
	for _, spec := range orderedSuite() {
		a := spec.Gen()
		want, err := symbolic.Factor(a)
		if err != nil {
			t.Fatalf("%s: Factor: %v", spec.Name, err)
		}
		if part := symbolic.PartitionColumns(a, 4); part != nil {
			t.Fatalf("%s: PartitionColumns returned a partition", spec.Name)
		}
		for _, w := range []int{1, 2, 4} {
			calls := 0
			runner := func(int, func(int) error) error { calls++; return nil }
			got, err := symbolic.FactorParallel(a, w, runner)
			if err != nil {
				t.Fatalf("%s: FactorParallel w=%d: %v", spec.Name, w, err)
			}
			if calls != 0 {
				t.Fatalf("%s: FactorParallel w=%d called its runner %d times", spec.Name, w, calls)
			}
			equalResult(t, spec.Name, got, want)
		}
	}
}
