package ordering

import (
	"fmt"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/transversal"
)

func BenchmarkMinimumDegree(b *testing.B) {
	for _, side := range []int{16, 32, 48} {
		g := grid2DPattern(side, side)
		b.Run(fmt.Sprintf("grid%dx%d", side, side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MinimumDegree(g)
			}
		})
	}
}

// BenchmarkColumnOrdering times the ordering stage exactly as Analyze
// runs it — AᵀA formed and ordered, on the full-size suite matrices
// after the transversal — and reports what the stage is for: the fill
// |Ā| of the static symbolic factorization under the permutation.
func BenchmarkColumnOrdering(b *testing.B) {
	for _, sp := range matgen.Suite() {
		a := sp.Gen()
		a1 := a.PermuteRows(transversal.MaximumTransversal(a).RowPerm)
		b.Run(sp.Name, func(b *testing.B) {
			var perm sparse.Perm
			for i := 0; i < b.N; i++ {
				perm = ColumnOrdering(a1, MinDegreeATA)
			}
			b.StopTimer()
			sym, err := symbolic.Factor(a1.PermuteSym(perm))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sym.NNZ()), "fill_nnz")
		})
	}
}

func BenchmarkReverseCuthillMcKee(b *testing.B) {
	g := grid2DPattern(48, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReverseCuthillMcKee(g)
	}
}
