package sparselu

// Benchmarks of the real code behind the paper's tables and the
// ablations, on the reduced-order suite so `go test -bench=.` finishes
// quickly. Everything simulated — Table 2 in sim mode, Figures 5–6, the
// simulated ablations — is printed by cmd/paperbench (full-size without
// -small) and pinned by its golden test; full-size timings are bench/'s
// job.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gplu"
	"repro/internal/matgen"
	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/transversal"
)

// orderingForGP builds the column permutation the Gilbert–Peierls
// baseline uses: transversal + minimum degree, composed.
func orderingForGP(a *sparse.CSC) sparse.Perm {
	tr := transversal.MaximumTransversal(a)
	return ordering.ColumnOrdering(a.PermuteRows(tr.RowPerm), ordering.MinDegreeATA)
}

// BenchmarkTable1SymbolicFill regenerates Table 1: the structural
// pipeline (transversal, minimum degree on AᵀA, static symbolic
// factorization). The fill ratio |Ā|/|A| is reported as a metric.
func BenchmarkTable1SymbolicFill(b *testing.B) {
	for _, spec := range matgen.SmallSuite() {
		b.Run(spec.Name, func(b *testing.B) {
			a := spec.Gen()
			var fill float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.Analyze(a, core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				fill = s.Stats.FillRatio
			}
			b.ReportMetric(fill, "fill-ratio")
		})
	}
}

// BenchmarkTable2Factorization regenerates Table 2: the parallel numeric
// factorization at P ∈ {1,2,4,8} workers (real goroutine execution). On
// a single-core host the wall time will not scale; the simulated Table 2
// comes from cmd/paperbench.
func BenchmarkTable2Factorization(b *testing.B) {
	for _, spec := range matgen.SmallSuite() {
		a := spec.Gen()
		s, err := core.Analyze(a, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/P=%d", spec.Name, p), func(b *testing.B) {
				nopts := &core.NumericOptions{Workers: p}
				for i := 0; i < b.N; i++ {
					if _, err := core.FactorizeWithOpts(s, a, nopts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3Supernodes regenerates Table 3: the supernode counts of
// the L/U partition without and with postordering, reported as metrics.
func BenchmarkTable3Supernodes(b *testing.B) {
	for _, spec := range matgen.SmallSuite() {
		b.Run(spec.Name, func(b *testing.B) {
			a := spec.Gen()
			var sn, snpo int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				noPO := core.DefaultOptions()
				noPO.Postorder = false
				sNo, err := core.Analyze(a, noPO)
				if err != nil {
					b.Fatal(err)
				}
				sPO, err := core.Analyze(a, core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				sn, snpo = sNo.Stats.Supernodes, sPO.Stats.Supernodes
			}
			b.ReportMetric(float64(sn), "SN")
			b.ReportMetric(float64(snpo), "SNPO")
			b.ReportMetric(float64(sn)/float64(snpo), "SN/SNPO")
		})
	}
}

// BenchmarkFactorize is the end-to-end numeric-phase benchmark the
// kernel work is judged by: one analysis, repeated factorizations, the
// symbolic cost model's flops over wall time reported as GFLOPS. The
// serial (P=1) runs on the full-size sherman5, sherman3, orsreg1 and
// lnsp3937 — the matrices of the four benchmark workloads — exercise the
// packed Dgemm, the panel-packed updates, the row-resident Dtrsm of
// U(K,J) and the column-major panel LU of F(K); sherman3 also runs at
// P=4. Two trees compare pair by pair with
// `go test -run xxx -bench 'Factorize/' -count N` in each, alternated.
func BenchmarkFactorize(b *testing.B) {
	for _, m := range []struct {
		name  string
		gen   func() *sparse.CSC
		procs []int
	}{
		{"sherman5", matgen.Sherman5, []int{1}},
		{"sherman3", matgen.Sherman3, []int{1, 4}},
		{"orsreg1", matgen.Orsreg1, []int{1}},
		{"lnsp3937", matgen.Lnsp3937, []int{1}},
	} {
		a := m.gen()
		s, err := core.Analyze(a, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range m.procs {
			b.Run(fmt.Sprintf("%s/P=%d", m.name, p), func(b *testing.B) {
				nopts := &core.NumericOptions{Workers: p}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.FactorizeWithOpts(s, a, nopts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(s.Stats.TotalFlops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}

// BenchmarkAblationPostorder measures the real serial factorization
// with and without postordering — the BLAS-3 benefit of larger
// supernodes (DESIGN.md ablation 1).
func BenchmarkAblationPostorder(b *testing.B) {
	spec := matgen.SmallSuite()[0]
	a := spec.Gen()
	for _, post := range []bool{false, true} {
		name := "postorder=off"
		if post {
			name = "postorder=on"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Postorder = post
			s, err := core.Analyze(a, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.FactorizeWith(s, a); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Stats.Supernodes), "supernodes")
		})
	}
}

// BenchmarkAblationAmalgamation sweeps the supernode width cap (DESIGN
// ablation 3): wider supernodes mean fewer, bigger BLAS-3 calls but
// more explicit zeros.
func BenchmarkAblationAmalgamation(b *testing.B) {
	spec := matgen.SmallSuite()[0]
	a := spec.Gen()
	for _, maxSize := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("maxsize=%d", maxSize), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Amalgamation.MaxSize = maxSize
			s, err := core.Analyze(a, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.FactorizeWith(s, a); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Stats.Supernodes), "supernodes")
		})
	}
}

// BenchmarkAblationOrdering compares fill across ordering methods
// (DESIGN ablation 5).
func BenchmarkAblationOrdering(b *testing.B) {
	spec := matgen.SmallSuite()[0]
	a := spec.Gen()
	for _, cfg := range []struct {
		name string
		ord  Ordering
	}{{"mindeg", MinDegree}, {"natural", NaturalOrder}, {"rcm", RCM}} {
		b.Run(cfg.name, func(b *testing.B) {
			m := WrapCSC(a)
			opts := DefaultOptions()
			opts.Ordering = cfg.ord
			var fill float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				an, err := Analyze(m, opts)
				if err != nil {
					b.Fatal(err)
				}
				fill = an.Stats().FillRatio
			}
			b.ReportMetric(fill, "fill-ratio")
		})
	}
}

// BenchmarkStructureBounds compares the dynamic (Gilbert–Peierls) fill
// against the static and column-etree bounds — the Section 3 remark
// that the column etree "substantially overestimates" the structures.
func BenchmarkStructureBounds(b *testing.B) {
	specs := matgen.SmallSuite()[:2]
	var rows []experiments.BoundsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.StructureBounds(specs)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.StaticOver, r.Name+"-static/dyn")
		b.ReportMetric(r.SuperLUOver, r.Name+"-slu/dyn")
	}
}

// BenchmarkGilbertPeierlsBaseline measures the dynamic-symbolic
// baseline factorization (SuperLU-class algorithm) for comparison with
// BenchmarkTable2Factorization.
func BenchmarkGilbertPeierlsBaseline(b *testing.B) {
	for _, spec := range matgen.SmallSuite()[:3] {
		b.Run(spec.Name, func(b *testing.B) {
			a := spec.Gen()
			q := orderingForGP(a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gplu.Factor(a, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolve measures the serial triangular sweeps on a single
// right-hand side.
func BenchmarkSolve(b *testing.B) {
	spec := matgen.SmallSuite()[0]
	a := spec.Gen()
	f, err := core.Factorize(a, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, a.NCols)
	for i := range rhs {
		rhs[i] = 1
	}
	b.Run(spec.Name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.Solve(rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolveMany measures SolveMany against a loop of Solves at
// nrhs ∈ {1, 2, 3, 4, 16} on the full-size sherman5, sherman3, orsreg1
// and lnsp3937, the matrices of the four benchmark workloads. It is the
// measurement behind core's vectorMaxRHS, the count up to which
// SolveMany sweeps vectors instead of a panel: at or below it both sides
// run the vector sweeps. A build with vectorMaxRHS = 0 puts every solve,
// Solve too, on the panel steps; its solve-many column against this
// build's loop-of-solves is the crossover. Two trees compare pair by
// pair with `go test -run xxx -bench SolveMany -count N` in each,
// alternated.
func BenchmarkSolveMany(b *testing.B) {
	for _, m := range []struct {
		name string
		gen  func() *sparse.CSC
	}{
		{"sherman5", matgen.Sherman5},
		{"sherman3", matgen.Sherman3},
		{"orsreg1", matgen.Orsreg1},
		{"lnsp3937", matgen.Lnsp3937},
	} {
		a := m.gen()
		f, err := core.Factorize(a, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		bs := make([][]float64, 16)
		for r := range bs {
			bs[r] = make([]float64, a.NCols)
			for i := range bs[r] {
				bs[r][i] = float64(r + i%5)
			}
		}
		for _, nrhs := range []int{1, 2, 3, 4, 16} {
			b.Run(fmt.Sprintf("%s/nrhs=%d/loop-of-solves", m.name, nrhs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, rhs := range bs[:nrhs] {
						if _, err := f.Solve(rhs); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(fmt.Sprintf("%s/nrhs=%d/solve-many", m.name, nrhs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := f.SolveMany(bs[:nrhs]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
