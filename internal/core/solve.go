package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// SolveWorkspace is the reusable scratch of the solve hot path: the
// permuted right-hand-side panel the triangular sweeps run on in
// place. Each Factorization keeps a pool of workspaces (concurrent
// solves each check one out and return it), so after the first solve
// of each shape the hot path allocates nothing beyond the result
// slices the API hands back — the multi-RHS analogue of the numeric
// phase's pooled pack buffers.
type SolveWorkspace struct {
	buf []float64
	// gather holds the planned rows of the right-hand-side panel for
	// fwdPanelStep's packed product.
	gather []float64
}

// panel returns the workspace buffer resized to n elements, growing
// the backing array only when a larger panel than any before is
// requested.
func (ws *SolveWorkspace) panel(n int) []float64 {
	if cap(ws.buf) < n {
		ws.buf = make([]float64, n)
	}
	return ws.buf[:n]
}

// getWorkspace checks a workspace out of the factorization's pool.
func (f *Factorization) getWorkspace() *SolveWorkspace {
	ws, _ := f.solveWS.Get().(*SolveWorkspace)
	if ws == nil {
		ws = &SolveWorkspace{}
	}
	return ws
}

// putWorkspace returns a workspace to the pool.
func (f *Factorization) putWorkspace(ws *SolveWorkspace) { f.solveWS.Put(ws) }

// solveOpts resolves the per-call state of one solve: trace recorder
// and context. An explicit override wins (the SolveWith/SolveManyWith
// paths, one override per request in the solve service); otherwise the
// solve runs under the options the factorization was created with. The
// returned stop func releases the deadline of this solve.
func (f *Factorization) solveOpts(override *NumericOptions) (rec *trace.Recorder, ctx context.Context, stop func()) {
	o := &f.nopts
	if override != nil {
		o = override
	}
	ctx, stop = phaseContext(o.Context, o.Timeout)
	return o.Trace, ctx, stop
}

// sweep runs one triangular sweep as a plain serial loop: step on block
// columns 0, 1, …, nb−1, or nb−1, …, 0 when descending. It polls ctx
// once per column with a non-blocking receive; ctx done before the last
// column has run returns a *sched.CancelError carrying context.Cause,
// while ctx done during the last column loses to the finished work and
// returns nil. The partially swept panel is pooled scratch, never a
// caller-visible result. With a recorder, each column is one event of
// kind on worker 0.
func sweep(ctx context.Context, nb int, descending bool, rec *trace.Recorder, kind trace.Kind, step func(k int)) error {
	done := ctx.Done()
	for i := 0; i < nb; i++ {
		select {
		case <-done:
			return &sched.CancelError{Cause: context.Cause(ctx), Completed: i, Total: nb}
		default:
		}
		k := i
		if descending {
			k = nb - 1 - i
		}
		if rec == nil {
			step(k)
			continue
		}
		start := rec.Now()
		step(k)
		rec.Record(0, trace.NoTask, kind, k, start)
	}
	return nil
}

// vectorMaxRHS is the largest right-hand-side count the solve driver
// sweeps one contiguous vector at a time with fwdStep/bwdStep; more
// share one panel and the BLAS-3 panel steps. The root
// BenchmarkSolveMany, full-size sherman5, sherman3, orsreg1 and
// lnsp3937 on one CPU of a 2-vCPU Xeon guest, medians of five
// alternated runs of 40 calls, ms per call for a loop of vector Solves
// against one panel SolveMany, built with vectorMaxRHS = 0:
//
//	nrhs =  1: 0.86 vs 3.29, 0.97 vs 2.91, 0.48 vs 1.72, 0.40 vs 1.35
//	nrhs =  2: 1.71 vs 3.79, 1.93 vs 3.24, 0.90 vs 1.97, 0.77 vs 1.50
//	nrhs =  3: 2.46 vs 4.15, 3.02 vs 3.65, 1.23 vs 2.19, 1.20 vs 1.63
//	nrhs = 16: 13.9 vs 4.68, 17.5 vs 4.22, 6.97 vs 2.43, 6.65 vs 2.54
//
// The vector sweeps win at three right-hand sides too, so the two
// kernel families cross over between 3 and 16. The constant stays 2
// because the golden table pins SolveMany at nrhs = 3 on the panel
// sweeps, whose answers differ from the vector ones by an ulp.
const vectorMaxRHS = 2

// Solve solves A·x = b for the original (unpermuted) matrix the
// factorization was computed from. b is not modified. The sweeps run
// serially, one step per block column: forward through L̄ in ascending
// column order, backward through Ū in descending order.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	return f.SolveWith(b, nil)
}

// SolveWith is Solve with an explicit per-call options override: the
// timeout, context and trace recorder of this one solve come from
// nopts instead of the factorization's frozen options (nil nopts is
// plain Solve). It is how a long-lived service binds a request-scoped
// deadline to a solve against a shared, immutable factorization without
// mutating it.
func (f *Factorization) SolveWith(b []float64, nopts *NumericOptions) ([]float64, error) {
	var x [1][]float64
	err := f.solve(x[:], [][]float64{b}, false, nopts)
	return x[0], err
}

// SolveMany solves A·X = B for several right-hand sides at once. Up to
// vectorMaxRHS of them are swept one at a time exactly as Solve sweeps
// them, so each answer is bitwise Solve's; more are packed into one
// n×nrhs panel in the pooled SolveWorkspace and swept with blocked
// BLAS-3 steps (Dtrsm/Dgemm), several times faster than a loop of
// Solves at 16 right-hand sides and within an ulp of them. The inputs
// are not modified.
func (f *Factorization) SolveMany(bs [][]float64) ([][]float64, error) {
	return f.SolveManyWith(bs, nil)
}

// SolveManyWith is SolveMany with an explicit per-call options
// override, the multi-RHS analogue of SolveWith (nil nopts is plain
// SolveMany).
func (f *Factorization) SolveManyWith(bs [][]float64, nopts *NumericOptions) ([][]float64, error) {
	xs := make([][]float64, len(bs))
	if err := f.solve(xs, bs, false, nopts); err != nil || len(bs) == 0 {
		return nil, err
	}
	return xs, nil
}

// solve is the one driver of Solve, SolveMany and SolveTranspose: it
// solves A·x = b, or Aᵀ·x = b when transpose is set, for every b of bs
// and stores the answer to bs[r] in xs[r]. It checks every length, then
// singularity; then it scatters each right-hand side through the input
// permutation and scale, runs the forward and the backward sweep, and
// gathers each solution through the output permutation and scale. The
// transposed steps exist for vectors only; SolveTranspose passes one
// right-hand side.
func (f *Factorization) solve(xs, bs [][]float64, transpose bool, nopts *NumericOptions) error {
	n := f.S.N
	for r, b := range bs {
		if len(b) != n {
			return fmt.Errorf("core: rhs %d has length %d, want %d", r, len(b), n)
		}
	}
	if f.Singular() {
		return f.singularError()
	}
	nrhs := len(bs)
	if nrhs == 0 {
		return nil
	}
	// A·x = b  ⇒  (P_sym P_row A P_symᵀ)(P_sym x) = P_sym P_row b, and
	// with equilibration (R·A₂·C)(C⁻¹·P_sym x) = R·P_sym P_row b: in
	// through SolvePerm and R, out through SymPerm and C. The transposed
	// system (R·A₂·C)ᵀ·z = C·P_sym b swaps the two, x = P_rᵀP_cᵀ(R·z),
	// and sweeps Ûᵀ forward and L̄ᵀ backward.
	in, inScale, out, outScale := f.S.SolvePerm, f.rscale, f.S.SymPerm, f.cscale
	fwd, bwd, fwdKind, bwdKind := f.fwdStep, f.bwdStep, trace.KindSolveL, trace.KindSolveU
	if transpose {
		in, inScale, out, outScale = out, outScale, in, inScale
		fwd, bwd, fwdKind, bwdKind = f.fwdStepT, f.bwdStepT, bwdKind, fwdKind
	}
	// Entry i of right-hand side r lives at y[i·rowStride + r·rhsStride]:
	// contiguous vectors for the vector steps, a row-major n×nrhs panel
	// for the panel steps.
	vector := transpose || nrhs <= vectorMaxRHS
	rowStride, rhsStride := 1, n
	if !vector {
		rowStride, rhsStride = nrhs, 1
	}
	ws := f.getWorkspace()
	defer f.putWorkspace(ws)
	y := ws.panel(n * nrhs)
	for r, b := range bs {
		yr := y[r*rhsStride:]
		if inScale == nil {
			for i, v := range b {
				yr[in[i]*rowStride] = v
			}
		} else {
			for i, v := range b {
				p := in[i]
				yr[p*rowStride] = v * inScale[p]
			}
		}
	}

	rec, ctx, stop := f.solveOpts(nopts)
	defer stop()
	nb := len(f.cols)
	if vector {
		for r := range bs {
			v := y[r*n : (r+1)*n]
			if err := sweep(ctx, nb, false, rec, fwdKind, func(k int) { fwd(k, v) }); err != nil {
				return err
			}
			if err := sweep(ctx, nb, true, rec, bwdKind, func(k int) { bwd(k, v) }); err != nil {
				return err
			}
		}
	} else {
		if err := sweep(ctx, nb, false, rec, fwdKind, func(k int) { f.fwdPanelStep(k, y, nrhs, ws) }); err != nil {
			return err
		}
		if err := sweep(ctx, nb, true, rec, bwdKind, func(k int) { f.bwdPanelStep(k, y, nrhs) }); err != nil {
			return err
		}
	}

	for r := range xs {
		x := make([]float64, n)
		yr := y[r*rhsStride:]
		if outScale == nil {
			for i := range x {
				x[i] = yr[out[i]*rowStride]
			}
		} else {
			for i := range x {
				p := out[i]
				x[i] = yr[p*rowStride] * outScale[p]
			}
		}
		xs[r] = x
	}
	return nil
}

// fwdStep is the forward-sweep step of block column k on one
// right-hand side: replay the panel's interchanges at its step, solve
// the unit-lower diagonal block, then propagate to the planned rows below
// it, four at a time.
func (f *Factorization) fwdStep(k int, y []float64) {
	c := &f.cols[k]
	w := c.width
	lo := f.S.Part.BlockStart[k]
	for lc, g := range f.ipiv[k] {
		if r := lo + lc; g != r {
			y[r], y[g] = y[g], y[r]
		}
	}
	yk := y[lo : lo+w]
	po := c.panelOffset()
	blas.Dtrsv(true, true, w, c.data[po*w:], w, yk)
	blas.DgemvRows(w, c.data[(po+w)*w:], w, c.plan, yk, y)
}

// bwdStep is the backward-sweep step of block column k: solve the
// upper-triangular diagonal block, then subtract U(I,K)·x_K from the
// rows of every block above, four rows at a time across the blocks.
func (f *Factorization) bwdStep(k int, y []float64) {
	c := &f.cols[k]
	w := c.width
	lo := f.S.Part.BlockStart[k]
	xk := y[lo : lo+w]
	blas.Dtrsv(false, false, w, c.data[c.panelOffset()*w:], w, xk)
	// The U blocks are stacked rows [0, panelOffset()), in order.
	var to [4]int32
	s, n := 0, 0
	for t := 0; t < c.diagIdx; t++ {
		ilo, ihi := f.S.Part.Range(c.blockRows[t])
		for g := ilo; g < ihi; g++ {
			to[n] = int32(g)
			if n++; n == len(to) {
				blas.DgemvRows(w, c.data[s*w:], w, to[:], xk, y)
				s, n = s+n, 0
			}
		}
	}
	blas.DgemvRows(w, c.data[s*w:], w, to[:n], xk, y)
}

// fwdPanelStep is fwdStep on an n×nrhs row-major panel: Dswap replays
// the interchanges across all right-hand sides, Dtrsm solves the
// unit-lower diagonal block, and the planned rows are updated. When they
// make a shape Dgemm sends down its packed path, their rows of the
// right-hand-side panel are gathered into ws, updated there by one Dgemm
// on the contiguous planned rows of L and scattered back; otherwise
// DgemmRows updates them in place. Both compute each row on its own with
// Dgemm's per-element order.
func (f *Factorization) fwdPanelStep(k int, y []float64, nrhs int, ws *SolveWorkspace) {
	c := &f.cols[k]
	w := c.width
	lo := f.S.Part.BlockStart[k]
	for lc, g := range f.ipiv[k] {
		if r := lo + lc; g != r {
			blas.Dswap(nrhs, y[r*nrhs:], 1, y[g*nrhs:], 1)
		}
	}
	yk := y[lo*nrhs:]
	po := c.panelOffset()
	blas.Dtrsm(true, true, w, nrhs, 1, c.data[po*w:], w, yk, nrhs)
	a := c.data[(po+w)*w:]
	m := len(c.plan)
	if !blas.PackedShape(m, nrhs, w) {
		blas.DgemmRows(nrhs, w, a, w, c.plan, yk, nrhs, y, nrhs)
		return
	}
	if cap(ws.gather) < m*nrhs {
		ws.gather = make([]float64, m*nrhs)
	}
	b := ws.gather[:m*nrhs]
	for i, g := range c.plan {
		copy(b[i*nrhs:(i+1)*nrhs], y[int(g)*nrhs:])
	}
	blas.Dgemm(m, nrhs, w, -1, a, w, yk, nrhs, 1, b, nrhs)
	for i, g := range c.plan {
		copy(y[int(g)*nrhs:(int(g)+1)*nrhs], b[i*nrhs:])
	}
}

// bwdPanelStep is bwdStep on an n×nrhs row-major panel.
func (f *Factorization) bwdPanelStep(k int, y []float64, nrhs int) {
	c := &f.cols[k]
	w := c.width
	lo, _ := f.S.Part.Range(k)
	diag := c.data[c.panelOffset()*w:]
	blas.Dtrsm(false, false, w, nrhs, 1, diag, w, y[lo*nrhs:], nrhs)
	for t := 0; t < c.diagIdx; t++ {
		i := c.blockRows[t]
		ilo, ihi := f.S.Part.Range(i)
		blas.Dgemm(ihi-ilo, nrhs, w, -1, c.data[c.offsets[t]*w:], w, y[lo*nrhs:], nrhs, 1, y[ilo*nrhs:], nrhs)
	}
}

// Residual returns ‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞), the standard
// scaled backward-error estimate, for the original system. It returns NaN
// when x or b does not have a's order, so the mismatch fails every
// "residual ≤ tol" check instead of panicking.
func Residual(a *sparse.CSC, x, b []float64) float64 {
	return ResidualWith(a, x, b, make([]float64, a.NRows), a.NormInf())
}

// ResidualWith is Residual, bit for bit, given anorm = ‖A‖∞ and a
// scratch r of a's row count, which it overwrites: a caller checking
// many solutions against one matrix computes the norm once and
// allocates nothing. A mismatched length returns NaN, as in Residual.
func ResidualWith(a *sparse.CSC, x, b, r []float64, anorm float64) float64 {
	if len(x) != a.NCols || len(b) != a.NRows || len(r) != a.NRows {
		return math.NaN()
	}
	return residual(a, x, b, r, anorm)
}

// residual stores the residual vector b − A·x in r and returns the
// backward error of Residual, given anorm = ‖A‖∞, so that iterative
// refinement computes each step's residual once and reuses it as the
// next right-hand side.
func residual(a *sparse.CSC, x, b, r []float64, anorm float64) float64 {
	a.MulVec(x, r)
	num := 0.0
	for i := range r {
		r[i] = b[i] - r[i]
		if d := math.Abs(r[i]); d > num {
			num = d
		}
	}
	xinf := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > xinf {
			xinf = a
		}
	}
	binf := 0.0
	for _, v := range b {
		if a := math.Abs(v); a > binf {
			binf = a
		}
	}
	den := anorm*xinf + binf
	if den == 0 {
		return num
	}
	return num / den
}
