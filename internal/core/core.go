// Package core assembles the paper's complete system: the analysis
// pipeline (maximum transversal → fill-reducing ordering → static
// symbolic factorization → LU elimination forest → postordering →
// supernode partition → block structure → task dependence graph) and the
// parallel supernodal numeric LU factorization with partial pivoting
// that runs on top of it, plus the triangular solves.
//
// Pivoting follows S+: row interchanges are confined to the static row
// set of each supernode panel and are applied lazily, per destination
// block column, by the Update tasks. Updates from independent subtrees
// of the LU eforest touch disjoint block rows (the branch property of
// the static structure), which is what makes the paper's reduced task
// dependence graph — and bitwise-deterministic parallel execution —
// possible.
package core

import (
	"context"
	"time"

	"repro/internal/ordering"
	"repro/internal/supernode"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// PivotPolicy selects the numeric response to a pivot that the static
// row set of a panel cannot stabilize (the premise of the static
// symbolic factorization is that no row exchanges happen outside it).
type PivotPolicy int

const (
	// PivotFail preserves the historical contract: an exactly zero
	// pivot column is skipped, the factorization completes, Singular()
	// reports true, and the solve paths return a *SingularError naming
	// the first affected column.
	PivotFail PivotPolicy = iota
	// PivotPerturb is the graceful path of production static-pivoting
	// solvers (SuperLU_DIST style): a pivot with |u_kk| < √ε·‖A‖∞ is
	// replaced by ±√ε·‖A‖∞, preserving its sign, so the factorization
	// never fails on tiny pivots; the lost accuracy is recovered with
	// SolveRefined and reported by PivotPerturbations/PerturbedColumns.
	PivotPerturb
)

// String names the policy for flags and diagnostics.
func (p PivotPolicy) String() string {
	if p == PivotPerturb {
		return "perturb"
	}
	return "fail"
}

// Options configures the analysis and factorization: the fields below
// shape the analysis and are baked into the Symbolic; the embedded
// NumericOptions are the per-call fields (o.Workers, o.Trace, … select
// them), the defaults of every factorization and solve that is not
// given its own.
type Options struct {
	// Ordering selects the fill-reducing ordering (default: minimum
	// degree on AᵀA, the paper's choice).
	Ordering ordering.Method
	// Postorder enables the paper's postordering of the LU elimination
	// forest (Section 3). Default true.
	Postorder bool
	// TaskGraph is ignored: the numeric phase always runs the paper's
	// eforest-guided graph (Symbolic.Graph), and the S* baseline exists
	// only on the block closure (taskgraph.New). Only bench/ reads it.
	//
	// Deprecated: ignored, the task graph is always EForest.
	TaskGraph taskgraph.Variant
	// Amalgamation tunes supernode amalgamation.
	Amalgamation supernode.AmalgamationOptions
	// Verify enables the debug invariant checks of internal/verify
	// during analysis: postorder invariance of the symbolic
	// factorization (Theorems 1–3), task-graph well-formedness and the
	// least-dependence property (Theorem 4). Costs roughly one extra
	// symbolic factorization.
	Verify bool

	NumericOptions
}

// NumericOptions is the per-call state of one numeric factorization
// and its solves, split out of Options so that one immutable Symbolic
// can serve many concurrent factorizations with different worker
// counts, pivot policies, deadlines and contexts. The analysis-shaping
// fields (Ordering, Postorder, Amalgamation, Verify) stay on
// Options: they are baked into the Symbolic and changing them requires
// a fresh Analyze.
//
// A nil *NumericOptions passed to FactorizeWithOpts means the
// NumericOptions of the Options the analysis was created with.
type NumericOptions struct {
	// Workers is the number of parallel workers for the numeric phase;
	// values < 1 mean 1.
	Workers int
	// SolveWorkers is ignored; only bench/ sets it, and ROADMAP's
	// deletion sweep (the item the bench decoupling unlocks) deletes it.
	//
	// Deprecated: ignored, solves are serial.
	SolveWorkers int
	// PivotPolicy selects how tiny pivots are handled (default
	// PivotFail, the historical flag-and-continue contract).
	PivotPolicy PivotPolicy
	// Equilibrate scales rows and columns to unit maxima before
	// factoring (LAPACK dgeequ style); improves pivots on badly scaled
	// systems. Solves transparently undo the scaling.
	Equilibrate bool
	// Timeout bounds the wall-clock duration of each bounded phase: the
	// parallel numeric factorization AND every solve call (Solve,
	// SolveMany, SolveTranspose and the paths routed through them). Each
	// phase runs under its own child of Context with this timeout and
	// cause ErrDeadlineExceeded; when it expires the workers stop
	// claiming tasks and the call returns a *sched.CancelError wrapping
	// ErrDeadlineExceeded. Zero (the default) means no limit.
	Timeout time.Duration
	// Context is the cancellation model of the numeric phase and the
	// solves: a context comes in, and once it is done the call returns a
	// *sched.CancelError carrying context.Cause. A failure goes out as
	// the call's own error and stops only that call; it never cancels
	// Context, so one context may serve any number of calls. Nil means
	// context.Background().
	Context context.Context
	// Trace optionally records per-task execution events. The recorder
	// must have at least Workers buffers. Nil (the default) disables
	// tracing at the cost of one branch per task.
	Trace *trace.Recorder
}

// withDefaults normalizes a NumericOptions value.
func (n *NumericOptions) withDefaults() NumericOptions {
	out := *n
	if out.Workers < 1 {
		out.Workers = 1
	}
	return out
}

// DefaultOptions returns the configuration used for the paper's headline
// experiments.
func DefaultOptions() *Options {
	return &Options{
		Ordering:       ordering.MinDegreeATA,
		Postorder:      true,
		TaskGraph:      taskgraph.EForest, // bench/ builds its replay graph from it
		Amalgamation:   supernode.AmalgamationOptions{MaxSize: supernode.MaxWidth, MaxFill: 0.25},
		NumericOptions: NumericOptions{Workers: 1},
	}
}

func (o *Options) withDefaults() *Options {
	var out Options
	if o == nil {
		out = *DefaultOptions()
	} else {
		out = *o
	}
	if out.Workers < 1 {
		out.Workers = 1
	}
	// Record the width Split applies, so that Opts and PatternHash name
	// the partition that ran: every MaxSize ≥ MaxWidth is one analysis.
	out.Amalgamation.MaxSize = supernode.Width(out.Amalgamation.MaxSize)
	return &out
}
