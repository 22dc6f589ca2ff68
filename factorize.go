package sparselu

import (
	"time"

	"repro/internal/core"
	"repro/internal/ordering"
	"repro/internal/supernode"
	"repro/internal/trace"
)

// ErrSingular is returned by the solve methods when the factorization
// met an exactly zero pivot under PivotFail. Use errors.As with
// *SingularError to recover the failing column.
var ErrSingular = core.ErrNumericallySingular

// SingularError is the structured form of ErrSingular, carrying the
// original column index of the first zero pivot.
type SingularError = core.SingularError

// ErrNonFinite is wrapped by factorization failures caused by NaN or
// Inf appearing in the factors; the parallel execution is canceled as
// soon as a kernel detects one.
var ErrNonFinite = core.ErrNonFinite

// ErrDeadlineExceeded is the cancellation cause when Options.Timeout
// expires before the numeric phase completes.
var ErrDeadlineExceeded = core.ErrDeadlineExceeded

// Ordering selects the fill-reducing column ordering.
type Ordering int

const (
	// MinDegree runs minimum degree on the pattern of AᵀA (the paper's
	// choice and the default).
	MinDegree Ordering = iota
	// NaturalOrder keeps the input ordering.
	NaturalOrder
	// RCM runs reverse Cuthill–McKee on the pattern of AᵀA.
	RCM
)

// PivotPolicy selects the numeric response to a pivot that the static
// row set of a panel cannot stabilize: static symbolic factorization
// admits no row exchanges outside each panel's fixed row set, so a
// tiny or zero pivot cannot be exchanged away.
type PivotPolicy int

const (
	// PivotFail (default) preserves the strict contract: a zero pivot
	// completes the factorization with Singular() set, and the solve
	// methods return a *SingularError naming the first affected column.
	PivotFail PivotPolicy = iota
	// PivotPerturb replaces any pivot with |u_kk| < √ε·‖A‖∞ by
	// ±√ε·‖A‖∞ (sign-preserving), the SuperLU_DIST strategy: the
	// factorization always completes and SolveRefined recovers the
	// lost accuracy. PivotPerturbations/PerturbedColumns report what
	// was touched.
	PivotPerturb
)

// Options configures analysis and factorization. The zero value is not
// meaningful; use DefaultOptions or pass nil to get the paper's
// configuration. The numeric phase always runs the paper's
// elimination-forest-guided task graph.
type Options struct {
	// Ordering is the fill-reducing ordering.
	Ordering Ordering
	// Postorder applies the paper's postordering of the LU elimination
	// forest, which enlarges supernodes and yields a block upper
	// triangular form.
	Postorder bool
	// Workers is the number of parallel workers for the numeric phase
	// (values below 1 mean serial execution).
	Workers int
	// SolveWorkers is ignored; only bench/ sets it, and ROADMAP's
	// deletion sweep (the item the bench decoupling unlocks) deletes it.
	//
	// Deprecated: ignored, solves are serial.
	SolveWorkers int
	// AnalyzeWorkers is ignored: the analysis runs once per pattern and
	// serially.
	//
	// Deprecated: ignored, Analyze is serial.
	AnalyzeWorkers int
	// AmalgamationFill is the fraction of explicit zeros a supernode
	// merge may introduce (negative means 0.25).
	AmalgamationFill float64
	// Equilibrate scales rows and columns to unit maxima before
	// factoring; solves transparently undo the scaling. Useful for
	// badly scaled systems.
	Equilibrate bool
	// Verify runs the debug invariant checks during analysis: postorder
	// invariance of the symbolic factorization (Theorems 1–3 of the
	// paper) and the least-dependence property of the task graph
	// (Theorem 4). Analysis fails loudly if an invariant is violated.
	Verify bool
	// Trace optionally records per-task execution events of the numeric
	// phase (worker, kind, column, start/stop timestamps) for the
	// analysis and export functions of internal/trace. The recorder must
	// have at least Workers buffers; nil disables tracing.
	Trace *trace.Recorder
	// PivotPolicy selects how pivots below the static threshold are
	// handled (default PivotFail).
	PivotPolicy PivotPolicy
	// Timeout bounds the wall-clock duration of each bounded phase: the
	// parallel numeric factorization and every solve call (Solve,
	// SolveMany, SolveTranspose and the paths routed through them), each
	// under a fresh deadline. When it expires the workers stop claiming
	// tasks (one atomic check per task claim) and the call returns an
	// error wrapping ErrDeadlineExceeded. Zero means no limit.
	Timeout time.Duration
}

// DefaultOptions returns the paper's configuration: minimum degree,
// postordering on, serial execution.
func DefaultOptions() *Options {
	return &Options{
		Ordering:         MinDegree,
		Postorder:        true,
		Workers:          1,
		AmalgamationFill: 0.25,
	}
}

func (o *Options) toCore() *core.Options {
	if o == nil {
		o = DefaultOptions()
	}
	ord := ordering.MinDegreeATA
	switch o.Ordering {
	case NaturalOrder:
		ord = ordering.Natural
	case RCM:
		ord = ordering.RCMATA
	}
	return &core.Options{
		Ordering:     ord,
		Postorder:    o.Postorder,
		Amalgamation: supernode.AmalgamationOptions{MaxFill: o.AmalgamationFill},
		Verify:       o.Verify,
		NumericOptions: core.NumericOptions{
			Workers:     o.Workers,
			PivotPolicy: core.PivotPolicy(o.PivotPolicy),
			Equilibrate: o.Equilibrate,
			Timeout:     o.Timeout,
			Trace:       o.Trace,
		},
	}
}

// Stats summarizes an analysis in the terms of the paper's tables.
type Stats struct {
	// Order is the matrix dimension n.
	Order int
	// NNZ is the number of nonzeros of A.
	NNZ int
	// FactorNNZ is |Ā|, the entries of the static factors.
	FactorNNZ int
	// FillRatio is |Ā| / |A| (Table 1).
	FillRatio float64
	// Supernodes is the supernode count after amalgamation and
	// load-balance splitting — the panel count of the numeric phase.
	Supernodes int
	// StrictSupernodes is the count before amalgamation (Table 3's SN /
	// SNPO, depending on the Postorder option).
	StrictSupernodes int
	// SplitBlocks is the number of extra panels introduced by splitting
	// supernodes wider than the load-balance threshold.
	SplitBlocks int
	// MaxBlockWidth and AvgBlockWidth describe the final panel widths.
	MaxBlockWidth int
	AvgBlockWidth float64
	// ExplicitZeros is the number of zeros the fill-ratio amalgamation
	// admitted into the dense factor blocks, and ExplicitZeroRatio their
	// fraction of the blocks' entries. They describe the block
	// structure: a factorization stores only the rows of L below each
	// diagonal block that can be non-zero, so it holds fewer of them.
	ExplicitZeros     int
	ExplicitZeroRatio float64
	// DiagonalBlocks is the number of trees in the LU eforest — the
	// diagonal blocks of the block-upper-triangular form (Table 3's
	// NoBlks).
	DiagonalBlocks int
	// Tasks and Edges describe the task dependence graph.
	Tasks, Edges int
	// TotalFlops estimates the numeric work; CriticalPathFlops the
	// weighted critical path of the task graph.
	TotalFlops, CriticalPathFlops float64
	// AnalyzeSeconds is the wall-clock duration of the analysis that
	// produced these stats. It is the only non-structural field: two
	// analyses of the same pattern agree on everything else.
	AnalyzeSeconds float64
}

// Analysis is the reusable structural phase: it depends only on the
// matrix pattern, so one Analysis can factor many matrices with the same
// structure.
type Analysis struct {
	s *core.Symbolic
}

// Analyze runs the structural pipeline on m.
func Analyze(m *Matrix, opts *Options) (*Analysis, error) {
	s, err := core.Analyze(m.a, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Analysis{s: s}, nil
}

// Stats returns the analysis summary.
func (a *Analysis) Stats() Stats {
	st := a.s.Stats
	return Stats{
		Order:             st.N,
		NNZ:               st.NNZA,
		FactorNNZ:         st.NNZFactors,
		FillRatio:         st.FillRatio,
		Supernodes:        st.Supernodes,
		StrictSupernodes:  st.StrictSN,
		SplitBlocks:       st.SplitBlocks,
		MaxBlockWidth:     st.MaxBlockWidth,
		AvgBlockWidth:     st.AvgBlockWidth,
		ExplicitZeros:     st.ExplicitZeros,
		ExplicitZeroRatio: st.ExplicitZeroRatio,
		DiagonalBlocks:    st.NumTrees,
		Tasks:             st.TaskCount,
		Edges:             st.EdgeCount,
		TotalFlops:        st.TotalFlops,
		CriticalPathFlops: st.CriticalPath,
		AnalyzeSeconds:    st.AnalyzeSeconds,
	}
}

// ReuseLevel reports how much of a previous analysis Reanalyze reused:
// "full" (identical pattern, previous analysis returned as-is) or
// "none" (full re-analysis).
type ReuseLevel = core.ReuseLevel

// Reanalysis levels.
const (
	ReuseFull = core.ReuseFull
	ReuseNone = core.ReuseNone
	// ReuseDelta named a patched analysis of a near-identical pattern.
	//
	// Deprecated: never returned; Reanalyze is a pattern-hash hit or a
	// full Analyze.
	ReuseDelta ReuseLevel = -1
)

// Reanalyze produces the analysis of m using this Analysis as a
// starting point. An identical pattern (and, by construction, identical
// analysis options) returns the receiver itself; any other pattern gets
// a full Analyze with the receiver's options, so the result is the one
// a fresh Analyze would produce.
func (a *Analysis) Reanalyze(m *Matrix) (*Analysis, ReuseLevel, error) {
	s, level, err := core.Reanalyze(a.s, m.a)
	if err != nil {
		return nil, level, err
	}
	if s == a.s {
		return a, level, nil
	}
	return &Analysis{s: s}, level, nil
}

// Symbolic exposes the internal analysis to sibling packages in this
// module (the benchmark harness needs the task graph and cost model).
func (a *Analysis) Symbolic() *core.Symbolic { return a.s }

// Factorize performs the numeric factorization of m under this
// analysis; m must have the pattern the analysis was computed from.
func (a *Analysis) Factorize(m *Matrix) (*Factorization, error) {
	f, err := core.FactorizeWith(a.s, m.a)
	if err != nil {
		return nil, err
	}
	return &Factorization{f: f, m: m}, nil
}

// Factorization holds the numeric LU factors.
type Factorization struct {
	f *core.Factorization
	m *Matrix
}

// Factorize analyzes and factors m in one call.
func Factorize(m *Matrix, opts *Options) (*Factorization, error) {
	f, err := core.Factorize(m.a, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Factorization{f: f, m: m}, nil
}

// Solve solves A·x = b. b is not modified. The triangular sweeps run
// serially over the block columns; scratch comes from the
// factorization's pooled solve workspace, so steady-state solves
// allocate only the returned slice, and concurrent solves on one
// factorization are safe.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	return f.f.Solve(b)
}

// SolveMany solves A·X = B for several right-hand sides. One or two are
// swept as vectors exactly as Solve sweeps them, so each answer is
// bitwise Solve's. Three or more are packed once into a dense n×nrhs
// panel in the pooled solve workspace and each block column runs
// Dtrsm/Dgemm across all of them: faster than repeated Solve calls from
// three right-hand sides on, and within an ulp of their answers.
func (f *Factorization) SolveMany(bs [][]float64) ([][]float64, error) {
	return f.f.SolveMany(bs)
}

// SolveTranspose solves Aᵀ·x = b. b is not modified. It shares Solve's
// workspace and serial sweeps.
func (f *Factorization) SolveTranspose(b []float64) ([]float64, error) {
	return f.f.SolveTranspose(b)
}

// SolveRefined solves A·x = b with up to maxIter steps of iterative
// refinement (tol ≤ 0 means machine precision). It returns the best
// iterate, its scaled backward error and the number of refinement steps
// taken; a step that does not lower the error is dropped.
func (f *Factorization) SolveRefined(b []float64, maxIter int, tol float64) (x []float64, backwardError float64, steps int, err error) {
	return f.f.SolveRefined(f.m.a, b, maxIter, tol)
}

// ConditionEstimate returns an estimate of the 1-norm condition number
// κ₁(A) using the Hager/Higham method (like LAPACK's xGECON).
func (f *Factorization) ConditionEstimate() (float64, error) {
	return f.f.CondEstimate1(f.m.a)
}

// LogDet returns the sign of det(A) and log|det(A)|; sign 0 means the
// factorization is singular.
func (f *Factorization) LogDet() (sign, logAbs float64) {
	return f.f.LogDet()
}

// PivotGrowth returns max|Û| / max|A|, the element-growth stability
// indicator of the factorization.
func (f *Factorization) PivotGrowth() float64 {
	return f.f.PivotGrowth(f.m.a)
}

// Singular reports whether the factorization hit an exactly zero pivot.
func (f *Factorization) Singular() bool { return f.f.Singular() }

// SingularColumn returns the original column index of the first zero
// pivot under PivotFail, or -1 when the factorization is not singular.
func (f *Factorization) SingularColumn() int { return f.f.SingularColumn() }

// PivotPerturbations returns the number of pivots replaced by the
// static perturbation under PivotPerturb (always 0 under PivotFail).
func (f *Factorization) PivotPerturbations() int { return f.f.PivotPerturbations() }

// PerturbedColumns returns the original column indices whose pivots
// were perturbed, in ascending order (nil when none were).
func (f *Factorization) PerturbedColumns() []int { return f.f.PerturbedColumns() }

// PivotThreshold returns the magnitude √ε·‖A‖∞ below which pivots are
// perturbed under PivotPerturb (0 under PivotFail).
func (f *Factorization) PivotThreshold() float64 { return f.f.PivotThreshold() }

// Residual returns the scaled backward error ‖A·x − b‖∞ / (‖A‖∞‖x‖∞ +
// ‖b‖∞), or NaN when len(x) or len(b) is not the order of m: NaN fails
// every "residual ≤ tol" check.
func Residual(m *Matrix, x, b []float64) float64 {
	return core.Residual(m.a, x, b)
}
