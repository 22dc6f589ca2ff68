// Command splu factorizes a sparse matrix and solves a linear system
// with it, reporting the structural statistics and the backward error.
//
// Usage:
//
//	splu -matrix system.mtx            # MatrixMarket file
//	splu -gen sherman3                 # generated benchmark matrix
//	splu -workers 4 -postorder=false
//	splu -rhs ones                     # ones | index | random
//	splu -pivot perturb -refine 3      # factor near-singular systems
//	splu -fillratio 0.4                # looser supernode amalgamation
//
// Without -matrix or -gen, a small built-in example runs.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/internal/matgen"
	"repro/internal/supernode"
	"repro/internal/trace"
)

func main() {
	var (
		matrixPath = flag.String("matrix", "", "MatrixMarket file to factor")
		gen        = flag.String("gen", "", "generate a benchmark matrix (sherman3, sherman5, lnsp3937, lns3937, orsreg1, saylr4, goodwin)")
		workers    = flag.Int("workers", 1, "parallel workers for the numeric phase")
		postorder  = flag.Bool("postorder", true, "postorder the LU elimination forest")
		ordFlag    = flag.String("ordering", "mindeg", "fill-reducing ordering: mindeg, natural or rcm")
		rhs        = flag.String("rhs", "ones", "right-hand side: ones, index or random")
		fillRatio  = flag.Float64("fillratio", 0.25, "explicit-zero fraction a supernode merge may introduce (negative = default)")
		equil      = flag.Bool("equilibrate", false, "scale rows/columns to unit maxima before factoring")
		refine     = flag.Int("refine", 0, "iterative refinement steps")
		diagnose   = flag.Bool("diagnose", false, "report condition estimate, pivot growth and log-determinant")
		verifyInv  = flag.Bool("verify", false, "machine-check the structural invariants (Theorems 1-4) during analysis")
		tracePath  = flag.String("trace", "", "record the numeric phase and write Chrome trace_event JSON to this file (open in chrome://tracing or ui.perfetto.dev)")
		pivot      = flag.String("pivot", "fail", "zero-pivot policy: fail (report singularity) or perturb (replace tiny pivots by ±√ε·‖A‖∞, recover with -refine)")
		timeout    = flag.Duration("timeout", 0, "abort the numeric phase after this duration (0 = no limit)")
	)
	flag.Parse()

	m, name, err := loadMatrix(*matrixPath, *gen)
	if err != nil {
		fatalf("%v", err)
	}

	opts := sparselu.DefaultOptions()
	opts.Workers = *workers
	opts.Postorder = *postorder
	opts.AmalgamationFill = *fillRatio
	opts.Equilibrate = *equil
	opts.Verify = *verifyInv
	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.New(*workers)
		opts.Trace = rec
	}
	opts.Timeout = *timeout
	switch *pivot {
	case "fail":
		opts.PivotPolicy = sparselu.PivotFail
	case "perturb":
		opts.PivotPolicy = sparselu.PivotPerturb
	default:
		fatalf("unknown -pivot %q", *pivot)
	}
	switch *ordFlag {
	case "mindeg":
		opts.Ordering = sparselu.MinDegree
	case "natural":
		opts.Ordering = sparselu.NaturalOrder
	case "rcm":
		opts.Ordering = sparselu.RCM
	default:
		fatalf("unknown -ordering %q", *ordFlag)
	}

	fmt.Printf("matrix %s: order %d, nnz %d\n", name, m.Order(), m.NNZ())

	analysis, err := sparselu.Analyze(m, opts)
	if err != nil {
		fatalf("analysis: %v", err)
	}
	st := analysis.Stats()
	tAnalyze := time.Duration(st.AnalyzeSeconds * float64(time.Second))
	fmt.Printf("analysis (%v):\n", tAnalyze.Round(time.Millisecond))
	if stages := analysis.Symbolic().StageSeconds; len(stages) > 0 {
		// Per-stage breakdown is recorded only when tracing is on.
		for _, sg := range stages {
			fmt.Printf("  stage %-28s %v\n", sg.Name,
				time.Duration(sg.Seconds*float64(time.Second)).Round(time.Microsecond))
		}
	}
	fmt.Printf("  |Abar| = %d (fill ratio %.1f)\n", st.FactorNNZ, st.FillRatio)
	fmt.Printf("  supernodes = %d (strict %d, split +%d), diagonal blocks = %d\n",
		st.Supernodes, st.StrictSupernodes, st.SplitBlocks, st.DiagonalBlocks)
	fmt.Printf("  panel width max %d avg %.1f, explicit zeros %d (%.1f%% of stored entries)\n",
		st.MaxBlockWidth, st.AvgBlockWidth, st.ExplicitZeros, 100*st.ExplicitZeroRatio)
	cs := analysis.Symbolic()
	fmt.Printf("  stored: %d blocks, %d entries; block closure (scheduling only): %d blocks, %d entries\n",
		cs.Stats.StoredBlocks, cs.Stats.StoredEntries, cs.Stats.BlockNNZ, supernode.DenseEntries(cs.BlockSym, cs.Part))
	fmt.Printf("  task graph: stored %d tasks, %d edges; block closure (paper's graph) %d tasks, %d edges\n",
		cs.Stats.StoredTasks, cs.Stats.StoredEdges, st.Tasks, st.Edges)
	fmt.Printf("  est. flops = %.3g, critical path = %.3g flops\n", st.TotalFlops, st.CriticalPathFlops)

	t0 := time.Now()
	f, err := analysis.Factorize(m)
	if err != nil {
		fatalf("factorization: %v", err)
	}
	tFactor := time.Since(t0)
	fmt.Printf("numeric factorization (%d workers): %v\n", *workers, tFactor.Round(time.Millisecond))
	if f.Singular() {
		fatalf("matrix is numerically singular (first zero pivot at column %d); retry with -pivot=perturb -refine=3", f.SingularColumn())
	}
	if np := f.PivotPerturbations(); np > 0 {
		fmt.Printf("pivot perturbations: %d (threshold %.3g); use -refine to recover accuracy\n", np, f.PivotThreshold())
	}

	b := makeRHS(*rhs, m.Order())
	t0 = time.Now()
	var x []float64
	if *refine > 0 {
		var berr float64
		var steps int
		x, berr, steps, err = f.SolveRefined(b, *refine, 0)
		if err != nil {
			fatalf("solve: %v", err)
		}
		fmt.Printf("triangular solves + %d refinement steps: %v (backward error %.3g)\n",
			steps, time.Since(t0).Round(time.Microsecond), berr)
	} else {
		x, err = f.Solve(b)
		if err != nil {
			fatalf("solve: %v", err)
		}
		fmt.Printf("triangular solves: %v\n", time.Since(t0).Round(time.Microsecond))
	}
	fmt.Printf("backward error: %.3g\n", sparselu.Residual(m, x, b))

	// The trace is reported after the solve so the solveL/solveU sweep
	// events land in the same file as the factorization tasks.
	if rec != nil {
		if err := reportTrace(*tracePath, rec, analysis); err != nil {
			fatalf("trace: %v", err)
		}
	}

	if *diagnose {
		if k, err := f.ConditionEstimate(); err == nil {
			fmt.Printf("condition estimate κ₁(A) ≈ %.3g\n", k)
		}
		fmt.Printf("pivot growth: %.3g\n", f.PivotGrowth())
		sign, logAbs := f.LogDet()
		fmt.Printf("log|det A| = %.6g (sign %+g)\n", logAbs, sign)
		if cols := f.PerturbedColumns(); len(cols) > 0 {
			fmt.Printf("perturbed pivot columns: %v\n", cols)
		}
	}
}

// reportTrace writes the Chrome trace file and prints the realized
// schedule summary: makespan, per-worker utilization, per-kind totals,
// and the realized critical path next to the analysis's prediction.
func reportTrace(path string, rec *trace.Recorder, analysis *sparselu.Analysis) error {
	events := rec.Events()
	g := analysis.Symbolic().Graph
	name := func(e trace.Event) string {
		if e.Task >= 0 && int(e.Task) < len(g.Tasks) {
			return g.Tasks[e.Task].String()
		}
		return e.Kind.String()
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := trace.WriteChromeTrace(out, events, rec.Workers(), name); err != nil {
		return err
	}

	s := trace.Summarize(events, rec.Workers())
	fmt.Printf("trace (%d events) written to %s\n", s.Events, path)
	fmt.Printf("  makespan %v, realized parallelism %.2f\n",
		time.Duration(s.Makespan).Round(time.Microsecond), s.Parallelism)
	for _, ws := range s.WorkerStats {
		fmt.Printf("  worker %d: %d tasks, busy %v (%.0f%%), longest idle %v\n",
			ws.Worker, ws.Tasks, time.Duration(ws.Busy).Round(time.Microsecond),
			100*ws.Utilization, time.Duration(ws.LongestIdle).Round(time.Microsecond))
	}
	for _, ks := range s.KindStats {
		fmt.Printf("  %s: %d events, total %v, min %v, max %v\n",
			ks.Kind, ks.Count, time.Duration(ks.Total).Round(time.Microsecond),
			time.Duration(ks.Min).Round(time.Microsecond), time.Duration(ks.Max).Round(time.Microsecond))
	}
	cpTasks, cp, err := g.CriticalPathTasks(trace.TaskDurations(events, len(g.Tasks)))
	if err != nil {
		return err
	}
	predicted, _, err := g.CriticalPathTasks(analysis.Symbolic().Costs.TaskFlops)
	if err != nil {
		return err
	}
	fmt.Printf("  realized critical path %v over %d tasks (predicted path: %d tasks)\n",
		time.Duration(cp).Round(time.Microsecond), len(cpTasks), len(predicted))
	return nil
}

func loadMatrix(path, gen string) (*sparselu.Matrix, string, error) {
	switch {
	case path != "" && gen != "":
		return nil, "", fmt.Errorf("use either -matrix or -gen, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		m, err := sparselu.ReadMatrixMarket(f)
		return m, path, err
	case gen != "":
		for _, spec := range append(matgen.Suite(), matgen.SmallSuite()...) {
			if spec.Name == gen {
				return sparselu.WrapCSC(spec.Gen()), gen, nil
			}
		}
		return nil, "", fmt.Errorf("unknown generator %q", gen)
	default:
		// Small built-in demo system.
		b := sparselu.NewBuilder(4)
		b.Add(0, 0, 4)
		b.Add(0, 2, 1)
		b.Add(1, 1, 5)
		b.Add(1, 3, 2)
		b.Add(2, 0, 1)
		b.Add(2, 2, 6)
		b.Add(3, 1, 1)
		b.Add(3, 3, 7)
		m, err := b.Build()
		return m, "builtin-demo", err
	}
}

func makeRHS(kind string, n int) []float64 {
	b := make([]float64, n)
	switch kind {
	case "ones":
		for i := range b {
			b[i] = 1
		}
	case "index":
		for i := range b {
			b[i] = float64(i + 1)
		}
	case "random":
		rng := rand.New(rand.NewSource(1))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
	default:
		fatalf("unknown -rhs %q", kind)
	}
	return b
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "splu: "+format+"\n", args...)
	os.Exit(1)
}
