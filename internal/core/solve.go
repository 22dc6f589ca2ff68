package core

import (
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
// and cancellation signal. An explicit override wins (the
// SolveWith/SolveManyWith paths, one override per request in the solve
// service); otherwise the solve runs under the options the
// factorization was created with. The returned stop func disarms the
// deadline timer of this solve.
func (f *Factorization) solveOpts(override *NumericOptions) (rec *trace.Recorder, cancel *sched.Canceler, stop func()) {
	o := &f.nopts
	if override != nil {
		o = override
	}
	cancel, stop = numericCanceler(o.Timeout, o.Cancel)
	return o.Trace, cancel, stop
}

// sweep runs one triangular sweep as a plain serial loop: step on block
// columns 0, 1, …, nb−1, or nb−1, …, 0 when descending. It polls the
// canceler once per column; a trip before the last column has run
// returns a *sched.CancelError whose cause is the deadline or external
// cancellation, while a trip during the last column loses to the
// finished work and returns nil. The partially swept panel is pooled
// scratch, never a caller-visible result. With a recorder, each column
// is one event of kind on worker 0.
func sweep(nb int, descending bool, rec *trace.Recorder, cancel *sched.Canceler, kind trace.Kind, step func(k int)) error {
	for i := 0; i < nb; i++ {
		if cancel != nil && cancel.Canceled() {
			return &sched.CancelError{Cause: cancel.Cause(), Completed: i, Total: nb}
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

// Solve solves A·x = b for the original (unpermuted) matrix the
// factorization was computed from. b is not modified. The sweeps run
// serially, one step per block column: forward through L̄ in ascending
// column order, backward through Ū in descending order.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	return f.SolveWith(b, nil)
}

// SolveWith is Solve with an explicit per-call options override: the
// deadline, canceler and trace recorder of this one solve come from
// nopts instead of the factorization's frozen options (nil nopts is
// plain Solve). It is how a long-lived service binds a request-scoped
// deadline to a solve against a shared, immutable factorization without
// mutating it.
func (f *Factorization) SolveWith(b []float64, nopts *NumericOptions) ([]float64, error) {
	if len(b) != f.S.N {
		return nil, fmt.Errorf("core: rhs has length %d, want %d", len(b), f.S.N)
	}
	if f.Singular() {
		return nil, f.singularError()
	}
	ws := f.getWorkspace()
	// A x = b  ⇒  (P_sym P_row A P_symᵀ)(P_sym x) = P_sym P_row b.
	// With equilibration, (R·A₂·C)(C⁻¹·P_sym x) = R·P_sym P_row b.
	y := ws.panel(f.S.N)
	for i, v := range b {
		y[f.S.SolvePerm[i]] = v
	}
	if f.rscale != nil {
		for i := range y {
			y[i] *= f.rscale[i]
		}
	}
	rec, cancel, stop := f.solveOpts(nopts)
	defer stop()
	nb := f.S.BlockSym.N
	if err := sweep(nb, false, rec, cancel, trace.KindSolveL, func(k int) { f.fwdStep(k, y) }); err != nil {
		f.putWorkspace(ws)
		return nil, err
	}
	if err := sweep(nb, true, rec, cancel, trace.KindSolveU, func(k int) { f.bwdStep(k, y) }); err != nil {
		f.putWorkspace(ws)
		return nil, err
	}
	if f.cscale != nil {
		for i := range y {
			y[i] *= f.cscale[i]
		}
	}
	x := make([]float64, f.S.N)
	for i := range x {
		x[i] = y[f.S.SymPerm[i]]
	}
	f.putWorkspace(ws)
	return x, nil
}

// fwdStep is the forward-sweep step of block column k on one
// right-hand side: replay the panel's interchanges at its step, solve
// the unit-lower diagonal block, then propagate to the sub-diagonal
// blocks. Block rows are contiguous scalar index ranges, so the
// relevant pieces of y are contiguous.
func (f *Factorization) fwdStep(k int, y []float64) {
	c := &f.cols[k]
	w := c.width
	prows := c.panelRows
	for lc, r := range f.ipiv[k] {
		if r != lc {
			y[prows[lc]], y[prows[r]] = y[prows[r]], y[prows[lc]]
		}
	}
	lo, _ := f.S.Part.Range(k)
	yk := y[lo : lo+w]
	diag := c.data[c.panelOffset()*w:]
	blas.Dtrsv(true, true, w, diag, w, yk)
	for t := c.diagIdx + 1; t < len(c.blockRows); t++ {
		i := c.blockRows[t]
		ilo, ihi := f.S.Part.Range(i)
		blas.Dgemv(false, ihi-ilo, w, -1, c.data[c.offsets[t]*w:], w, yk, 1, y[ilo:ihi])
	}
}

// bwdStep is the backward-sweep step of block column k: solve the
// upper-triangular diagonal block, then subtract U(I,K)·x_K from the
// rows of every block above.
func (f *Factorization) bwdStep(k int, y []float64) {
	c := &f.cols[k]
	w := c.width
	lo, _ := f.S.Part.Range(k)
	xk := y[lo : lo+w]
	diag := c.data[c.panelOffset()*w:]
	blas.Dtrsv(false, false, w, diag, w, xk)
	for t := 0; t < c.diagIdx; t++ {
		i := c.blockRows[t]
		ilo, ihi := f.S.Part.Range(i)
		blas.Dgemv(false, ihi-ilo, w, -1, c.data[c.offsets[t]*w:], w, xk, 1, y[ilo:ihi])
	}
}

// SolveMany solves A·X = B for several right-hand sides at once with
// blocked BLAS-3 sweeps (Dtrsm/Dgemm on an n×nrhs panel), which is
// substantially faster than repeated single-vector solves once nrhs is
// more than a couple. The panel lives in the factorization's pooled
// SolveWorkspace and the right-hand sides are packed straight into
// their permuted rows, so no per-RHS staging copies are allocated. The
// sweeps visit the block columns in Solve's order. The inputs are not
// modified.
func (f *Factorization) SolveMany(bs [][]float64) ([][]float64, error) {
	return f.SolveManyWith(bs, nil)
}

// SolveManyWith is SolveMany with an explicit per-call options
// override, the multi-RHS analogue of SolveWith (nil nopts is plain
// SolveMany).
func (f *Factorization) SolveManyWith(bs [][]float64, nopts *NumericOptions) ([][]float64, error) {
	if f.Singular() {
		return nil, f.singularError()
	}
	nrhs := len(bs)
	if nrhs == 0 {
		return nil, nil
	}
	n := f.S.N
	for r, b := range bs {
		if len(b) != n {
			return nil, fmt.Errorf("core: rhs %d has length %d, want %d", r, len(b), n)
		}
	}
	// Pack the permuted (and scaled) right-hand sides as a row-major
	// n×nrhs panel, scattering each b directly through SolvePerm.
	ws := f.getWorkspace()
	y := ws.panel(n * nrhs)
	for r, b := range bs {
		for i, v := range b {
			y[f.S.SolvePerm[i]*nrhs+r] = v
		}
	}
	if f.rscale != nil {
		for i := 0; i < n; i++ {
			s := f.rscale[i]
			row := y[i*nrhs : (i+1)*nrhs]
			for j := range row {
				row[j] *= s
			}
		}
	}

	rec, cancel, stop := f.solveOpts(nopts)
	defer stop()
	nb := f.S.BlockSym.N
	if err := sweep(nb, false, rec, cancel, trace.KindSolveL, func(k int) { f.fwdPanelStep(k, y, nrhs) }); err != nil {
		f.putWorkspace(ws)
		return nil, err
	}
	if err := sweep(nb, true, rec, cancel, trace.KindSolveU, func(k int) { f.bwdPanelStep(k, y, nrhs) }); err != nil {
		f.putWorkspace(ws)
		return nil, err
	}

	// Unpack, unscale, unpermute: one gather pass per right-hand side,
	// straight from the panel into the result.
	out := make([][]float64, nrhs)
	for r := range out {
		x := make([]float64, n)
		if f.cscale != nil {
			for i := 0; i < n; i++ {
				p := f.S.SymPerm[i]
				x[i] = y[p*nrhs+r] * f.cscale[p]
			}
		} else {
			for i := 0; i < n; i++ {
				x[i] = y[f.S.SymPerm[i]*nrhs+r]
			}
		}
		out[r] = x
	}
	f.putWorkspace(ws)
	return out, nil
}

// fwdPanelStep is fwdStep on an n×nrhs row-major panel: Dswap replays
// the interchanges across all right-hand sides, Dtrsm solves the
// unit-lower diagonal block, Dgemm scatters the sub-diagonal updates.
func (f *Factorization) fwdPanelStep(k int, y []float64, nrhs int) {
	c := &f.cols[k]
	w := c.width
	prows := c.panelRows
	for lc, rr := range f.ipiv[k] {
		if rr != lc {
			blas.Dswap(nrhs, y[prows[lc]*nrhs:], 1, y[prows[rr]*nrhs:], 1)
		}
	}
	lo, _ := f.S.Part.Range(k)
	diag := c.data[c.panelOffset()*w:]
	blas.Dtrsm(true, true, w, nrhs, 1, diag, w, y[lo*nrhs:], nrhs)
	for t := c.diagIdx + 1; t < len(c.blockRows); t++ {
		i := c.blockRows[t]
		ilo, ihi := f.S.Part.Range(i)
		blas.Dgemm(ihi-ilo, nrhs, w, -1, c.data[c.offsets[t]*w:], w, y[lo*nrhs:], nrhs, 1, y[ilo*nrhs:], nrhs)
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
	if len(x) != a.NCols || len(b) != a.NRows {
		return math.NaN()
	}
	r := make([]float64, len(b))
	a.MulVec(x, r)
	num := 0.0
	for i := range r {
		if d := math.Abs(r[i] - b[i]); d > num {
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
	den := a.NormInf()*xinf + binf
	if den == 0 {
		return num
	}
	return num / den
}
