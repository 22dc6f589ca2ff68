package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/luerr"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// ErrNumericallySingular is returned when a panel factorization meets an
// exactly zero pivot column. It also matches luerr.ErrSingular, the
// cross-solver singularity class.
var ErrNumericallySingular = luerr.Tag("core: matrix is numerically singular", luerr.ErrSingular)

// ErrNonFinite is wrapped by the task failure that aborts a
// factorization whose kernels produced a NaN or an Inf: once a
// non-finite value enters the factors every downstream task is wasted
// work, so the executor cancels promptly instead of completing the DAG.
// It also matches luerr.ErrNonFinite.
var ErrNonFinite = luerr.Tag("core: non-finite value in factorization", luerr.ErrNonFinite)

// ErrDeadlineExceeded is the cancellation cause installed when a phase
// deadline (Options.Timeout / NumericOptions.Timeout) expires before
// the numeric phase or a solve completes. It also matches
// luerr.ErrDeadline.
var ErrDeadlineExceeded = luerr.Tag("core: factorization deadline exceeded", luerr.ErrDeadline)

// SingularError reports numeric singularity with the first affected
// column attached, in the original (unpermuted) column numbering. It
// matches errors.Is(err, ErrNumericallySingular).
type SingularError struct {
	// Col is the original column index of the first zero pivot, or -1
	// when it is unknown.
	Col int
}

// Error formats the failure with the column attached.
func (e *SingularError) Error() string {
	if e.Col < 0 {
		return ErrNumericallySingular.Error()
	}
	return fmt.Sprintf("%v: no pivot at column %d", ErrNumericallySingular, e.Col)
}

// Unwrap exposes the ErrNumericallySingular sentinel to errors.Is.
func (e *SingularError) Unwrap() error { return ErrNumericallySingular }

// colLayout is the structural half of one block column's dense stacked
// storage: the blocks of Symbolic.Stored in that column, concatenated by
// ascending block row, and where each one starts. The L panel (diagonal
// block and below) is the contiguous tail, which is what the panel
// factorization and the TRSM/GEMM kernels operate on. It depends only on
// the pattern, so it is built once per Symbolic (newLayout) and shared
// by every factorization.
type colLayout struct {
	width     int
	blockRows []int // ascending block-row ids stored in this column
	offsets   []int // row offset of each block within data (parallel to blockRows)
	diagIdx   int   // index into blockRows of the diagonal block
	rows      int   // total scalar rows stacked
	// plan lists the rows below the diagonal block that can be
	// non-zero, as (stacked row, global row) pairs by ascending row: the
	// rows that hold an entry of Ā in the column's columns. Every other
	// sub-diagonal row is ±0 after every factorization (George–Ng), so
	// the solve skips it. A window of one slice for the whole layout.
	plan []int32
	// packEnd ends the window of the column's packed sub-diagonal L
	// rows in a factorization's packed slab (packSlab): the window is
	// [packEnd of the previous column (0 for the first), packEnd), and it
	// is empty unless some run of a U(K,·) takes the packed path.
	packEnd int
}

// blockCol is one block column of a factorization: the shared layout and
// this factorization's values, a window of its one value slab.
type blockCol struct {
	*colLayout
	data []float64 // rows × width, row-major, lda = width
}

// newLayout lays the block columns of stored out for the partition,
// places the rows of plan (column K: the global rows below K's diagonal
// block that can be non-zero, ascending, as supernode.BlockPatternOrdered
// returns them) in the stacks, and plans the packed slab (planPacking).
func newLayout(stored *symbolic.Result, part *supernode.Partition, plan *sparse.Pattern) []colLayout {
	lay := make([]colLayout, stored.N)
	blockRows := make([]int, 0, stored.NNZ())
	offsets := make([]int, 0, stored.NNZ())
	pairs := make([]int32, 0, 2*plan.NNZ())
	u := stored.UCols()
	for j := range lay {
		c := &lay[j]
		c.width = part.Size(j)
		ublocks := u.Col(j) // rows ≤ j, ends at diagonal
		c.diagIdx = len(ublocks) - 1
		lo := len(blockRows)
		blockRows = append(append(blockRows, ublocks[:c.diagIdx]...), stored.L.Col(j)...)
		c.blockRows = blockRows[lo:len(blockRows):len(blockRows)]
		for _, br := range c.blockRows {
			offsets = append(offsets, c.rows)
			c.rows += part.Size(br)
		}
		c.offsets = offsets[lo:len(offsets):len(offsets)]
		start, t := len(pairs), c.diagIdx+1
		for _, g := range plan.Col(j) {
			br := part.ColToBlock[g]
			for t < len(c.blockRows) && c.blockRows[t] < br {
				t++
			}
			if t == len(c.blockRows) || c.blockRows[t] != br {
				panic(fmt.Sprintf("core: planned row %d of block column %d lies in no stored block", g, j))
			}
			pairs = append(pairs, int32(c.offsets[t]+g-part.BlockStart[br]), int32(g))
		}
		c.plan = pairs[start:len(pairs):len(pairs)]
	}
	planPacking(lay)
	return lay
}

// planPacking lays out the packed slab: it gives panel K a window of
// blas.PanelSize ints when at least one Schur run of a stored U(K,J)
// has a shape blas.PackedShape sends down the packed path — the
// dispatch predicate of Dgemm, so exactly the runs that would pack
// L(·,K) themselves read it packed — and an empty window otherwise.
func planPacking(lay []colLayout) {
	need := make([]bool, len(lay))
	for j := range lay {
		colJ := &lay[j]
		for tk, k := range colJ.blockRows[:colJ.diagIdx] {
			colK := &lay[k]
			t, tj := colK.diagIdx+1, tk+1
			for !need[k] {
				var n int
				t, tj, n = nextRun(colK.blockRows, colJ.blockRows, t, tj)
				if n == 0 {
					break
				}
				need[k] = blas.PackedShape(colK.rowEnd(t+n-1)-colK.offsets[t], colJ.width, colK.width)
				t, tj = t+n, tj+n
			}
		}
	}
	end := 0
	for k := range lay {
		if c := &lay[k]; need[k] {
			_, ints := blas.PanelSize(c.subRows(), c.width)
			end += ints
		}
		lay[k].packEnd = end
	}
}

// findBlock returns the index of block row br in the ascending list
// blockRows, or -1 when the block is not stored.
func findBlock(blockRows []int, br int) int {
	if t, ok := slices.BinarySearch(blockRows, br); ok {
		return t
	}
	return -1
}

// panelOffset returns the row offset where the L panel starts.
func (c *colLayout) panelOffset() int { return c.offsets[c.diagIdx] }

// subRows returns the number of rows of the L panel below its diagonal
// block.
func (c *colLayout) subRows() int { return c.rows - c.panelOffset() - c.width }

// globalRow returns the global scalar row of stacked row r.
func (c *colLayout) globalRow(part *supernode.Partition, r int) int {
	t, ok := slices.BinarySearch(c.offsets, r)
	if !ok {
		t--
	}
	return part.BlockStart[c.blockRows[t]] + r - c.offsets[t]
}

// rowEnd returns the row offset just past the block at index t.
func (c *colLayout) rowEnd(t int) int {
	if t+1 < len(c.offsets) {
		return c.offsets[t+1]
	}
	return c.rows
}

// values returns the length of a factorization's value slab: the block
// columns' dense stacks, back to back in column order.
func (s *Symbolic) values() int {
	n := 0
	for j := range s.layout {
		n += s.layout[j].rows * s.layout[j].width
	}
	return n
}

// packLen returns the ints of the slab a factorization of s packs
// into, 0 when no panel needs packing.
func (s *Symbolic) packLen() int {
	if len(s.layout) == 0 {
		return 0
	}
	return s.layout[len(s.layout)-1].packEnd
}

// Factorization holds the numeric factors in supernodal block storage
// together with the analysis that produced them.
type Factorization struct {
	S    *Symbolic
	cols []blockCol
	// ipiv[K] holds the pivot rows of block column K as global rows: at
	// local column c, global row BlockStart[K]+c was swapped with global
	// row ipiv[K][c]. The rows are windows of one slice of length N.
	ipiv [][]int
	// rscale/cscale hold the equilibration factors (nil when disabled):
	// the factored matrix is R·A₂·C in the permuted index space.
	rscale, cscale []float64
	// badCol is the smallest permuted global column index whose pivot
	// was exactly zero under PivotFail, or -1 when none was. Factor
	// tasks of distinct panels race to publish it, so it is kept as a
	// CAS minimum.
	badCol atomic.Int64
	// policy and pivotTol freeze the pivot handling for this
	// factorization: pivotTol is √ε·‖A₂‖∞ of the matrix actually
	// factored (post permutation and scaling), 0 under PivotFail.
	policy   PivotPolicy
	pivotTol float64
	// perturbed[K] lists the permuted global columns of panel K whose
	// pivots were replaced (written only by task F(K), read after the
	// execution's completion barrier).
	perturbed [][]int
	// perturbScratch is the preallocated buffer, one slot per scalar
	// column, whose window of panel K task F(K) hands to
	// blas.DgetrfStatic for panel-local perturbation indices, so Factor
	// tasks allocate nothing. Nil under PivotFail (fail mode never
	// records perturbations).
	perturbScratch []int
	// solveWS pools the SolveWorkspace panels of the solve hot path;
	// concurrent solves on one factorization each check out their own,
	// so steady-state solves allocate nothing beyond their results.
	solveWS sync.Pool
	// nopts is the per-call numeric options this factorization was
	// created with, resolved once by FactorizeWithOpts; solves without
	// an explicit override run under them.
	nopts NumericOptions
	// pack holds the packed L panels while FactorizeWithOpts runs the
	// numeric phase, nil before and after. With it, no update packs
	// inside Dgemm: a panel the plan gave no window has no run that
	// blas.PackedShape accepts. Without it (newFactorization and runTask
	// alone) every run goes to Dgemm, which packs the accepted ones.
	pack *packSlab
}

// Singular reports whether any panel hit an exactly zero pivot.
func (f *Factorization) Singular() bool { return f.badCol.Load() >= 0 }

// noteSingular flags the factorization singular by folding the permuted
// global column col into the minimum published by racing Factor tasks.
func (f *Factorization) noteSingular(col int) {
	for {
		cur := f.badCol.Load()
		if cur >= 0 && cur <= int64(col) {
			return
		}
		if f.badCol.CompareAndSwap(cur, int64(col)) {
			return
		}
	}
}

// SingularColumn returns the original (unpermuted) column index of the
// first zero pivot, or -1 when the factorization is not singular. "First"
// means the smallest column index in the factored (permuted) ordering,
// which is deterministic across worker counts.
func (f *Factorization) SingularColumn() int {
	pc := f.badCol.Load()
	if pc < 0 {
		return -1
	}
	return f.S.SymPerm.Inverse()[pc]
}

// singularError builds the error the solve paths return on a singular
// factorization.
func (f *Factorization) singularError() error {
	return &SingularError{Col: f.SingularColumn()}
}

// PivotPerturbations returns the number of pivots replaced by the
// static perturbation of PivotPerturb (0 under PivotFail).
func (f *Factorization) PivotPerturbations() int {
	n := 0
	for _, cols := range f.perturbed {
		n += len(cols)
	}
	return n
}

// PerturbedColumns returns the original (unpermuted) column indices of
// the perturbed pivots in ascending order, or nil when none were.
func (f *Factorization) PerturbedColumns() []int {
	n := f.PivotPerturbations()
	if n == 0 {
		return nil
	}
	inv := f.S.SymPerm.Inverse()
	out := make([]int, 0, n)
	for _, cols := range f.perturbed {
		for _, pc := range cols {
			out = append(out, inv[pc])
		}
	}
	sort.Ints(out)
	return out
}

// PivotThreshold returns the pivot-magnitude threshold √ε·‖A₂‖∞ used by
// this factorization (0 under PivotFail).
func (f *Factorization) PivotThreshold() float64 { return f.pivotTol }

// Factorize runs analysis and numeric factorization in one call.
func Factorize(a *sparse.CSC, opts *Options) (*Factorization, error) {
	s, err := Analyze(a, opts)
	if err != nil {
		return nil, err
	}
	return FactorizeWith(s, a)
}

// FactorizeWith is FactorizeWithOpts under the analysis options (a must
// have the structure the analysis was computed from).
func FactorizeWith(s *Symbolic, a *sparse.CSC) (*Factorization, error) {
	return FactorizeWithOpts(s, a, nil)
}

// FactorizeWithOpts performs the numeric factorization of a using an
// existing analysis. The Symbolic is treated as immutable shared input
// and every piece of per-call state (worker counts, pivot policy,
// equilibration, deadline, cancellation, tracing) comes from nopts, so
// any number of goroutines may factor through one analysis
// concurrently. A nil nopts means the options the analysis was created
// with, read once here; either way the factorization keeps the resolved
// value for its solves.
func FactorizeWithOpts(s *Symbolic, a *sparse.CSC, nopts *NumericOptions) (*Factorization, error) {
	eff := resolveNumOpts(s, nopts)
	f, err := newFactorization(s, a, eff)
	if err != nil {
		return nil, err
	}
	ctx, stop := phaseContext(eff.Context, eff.Timeout)
	defer stop()
	f.pack = getPackSlab(s.packLen())
	err = sched.Run(s.Graph, sched.RunOptions{
		Procs:   eff.Workers,
		Prio:    s.Prio,
		Trace:   eff.Trace,
		Context: ctx,
	}, f.runTask)
	// Run has joined its workers, on failure and cancellation too, so
	// no task reads the slab any more.
	putPackSlab(f.pack)
	f.pack = nil
	if err != nil {
		return nil, err
	}
	return f, nil
}

// resolveNumOpts normalizes the per-call options of one factorization:
// the caller's explicit NumericOptions, or the Symbolic's recorded
// Options when nopts is nil. Workers is capped at the task count: the
// engine sizes one deque per worker for the whole graph, so memory
// would grow with any worker count, and a worker beyond the task count
// never runs a task (results are bitwise the same at every count).
func resolveNumOpts(s *Symbolic, nopts *NumericOptions) NumericOptions {
	if nopts == nil {
		nopts = &s.Opts.NumericOptions
	}
	eff := nopts.withDefaults()
	eff.Workers = min(eff.Workers, max(1, s.Graph.NumTasks()))
	return eff
}

// phaseContext returns the context of one bounded phase (the numeric
// factorization, or one solve call): parent (nil means Background), or
// with a timeout a child of it that expires with cause
// ErrDeadlineExceeded, so one phase's deadline never reaches a context
// other phases share. Callers must invoke stop once the phase returns.
func phaseContext(parent context.Context, timeout time.Duration) (ctx context.Context, stop func()) {
	if parent == nil {
		parent = context.Background()
	}
	if timeout <= 0 {
		return parent, noopStop
	}
	return context.WithTimeoutCause(parent, timeout, ErrDeadlineExceeded)
}

// noopStop is the shared no-op disarm func of unbounded phases, so the
// uncancelled hot path allocates no closure.
func noopStop() {}

// newFactorization allocates the values of the stored blocks — one slab
// windowed by the Symbolic's layout — and scatters the numeric values of
// the permuted matrix into it. eff carries the resolved per-call numeric
// options; only the Symbolic's structural fields are read, never
// written.
func newFactorization(s *Symbolic, a *sparse.CSC, eff NumericOptions) (*Factorization, error) {
	if a.NRows != s.N || a.NCols != s.N {
		return nil, fmt.Errorf("core: matrix is %d×%d, analysis is for order %d", a.NRows, a.NCols, s.N)
	}
	nb := len(s.layout)
	f := &Factorization{
		S:         s,
		cols:      make([]blockCol, nb),
		ipiv:      make([][]int, nb),
		policy:    eff.PivotPolicy,
		perturbed: make([][]int, nb),
		nopts:     eff,
	}
	f.badCol.Store(-1)
	part := s.Part
	data := make([]float64, s.values())
	ipiv := make([]int, s.N)
	for j, off := 0, 0; j < nb; j++ {
		c := &s.layout[j]
		f.cols[j] = blockCol{colLayout: c, data: data[off : off+c.rows*c.width]}
		off += c.rows * c.width
		f.ipiv[j] = ipiv[part.BlockStart[j]:part.BlockStart[j+1]]
	}

	// Scatter the numeric values: entry (i, j) of a is entry
	// (SolvePerm[i], SymPerm[j]) of the matrix A₂ the kernels factor, so
	// no permuted copy is built. Equilibration scales A₂ to R·A₂·C with
	// the scales of a itself carried through the same permutations (row
	// and column maxima do not depend on order), and each entry is
	// scattered as a_ij·(r·c). The serial scaling pre-pass is recorded as
	// a single Scale event on worker 0 so traces account for the time
	// spent before the parallel phase.
	if eff.Equilibrate {
		var start int64
		if rec := eff.Trace; rec != nil {
			start = rec.Now()
		}
		r, c := Equilibrate(a)
		f.rscale, f.cscale = make([]float64, s.N), make([]float64, s.N)
		for i := range r {
			f.rscale[s.SolvePerm[i]] = r[i]
			f.cscale[s.SymPerm[i]] = c[i]
		}
		if rec := eff.Trace; rec != nil {
			rec.Record(0, trace.NoTask, trace.KindScale, -1, start)
		}
	}
	// Block column by block column, so that planned[i] == bj+1 marks
	// the rows of bj's plan: an entry below the diagonal block must lie
	// in one, since the solve skips every other row.
	colOf := s.SymPerm.Inverse()
	planned := make([]int, s.N)
	for bj := range f.cols {
		c := &f.cols[bj]
		for p := 1; p < len(c.plan); p += 2 {
			planned[c.plan[p]] = bj + 1
		}
		sub := c.panelOffset() + c.width
		for j := part.BlockStart[bj]; j < part.BlockStart[bj+1]; j++ {
			lc := j - part.BlockStart[bj]
			rows, vals := a.Col(colOf[j])
			for k, io := range rows {
				i := s.SolvePerm[io]
				off, ok := f.rowOffset(c, i)
				if !ok || off >= sub && planned[i] != bj+1 {
					return nil, fmt.Errorf("core: entry (%d,%d) outside the block structure", i, j)
				}
				c.data[off*c.width+lc] = f.a2(vals[k], i, j)
			}
		}
	}
	if f.policy == PivotPerturb {
		// √ε·‖A₂‖∞ of the matrix actually handed to the kernels, the
		// SuperLU_DIST threshold. A structurally empty matrix gets a
		// norm of 1 so the threshold is still positive.
		const eps = 0x1p-52
		anorm := f.normInfA2(a, colOf)
		if anorm == 0 {
			anorm = 1
		}
		f.pivotTol = math.Sqrt(eps) * anorm
		f.perturbScratch = make([]int, s.N)
	}
	return f, nil
}

// a2 returns entry (i, j) of the matrix the kernels factor, given the
// stored value v of a at the entry that maps there: v, or under
// equilibration v·(r_i·c_j).
func (f *Factorization) a2(v float64, i, j int) float64 {
	if f.rscale == nil {
		return v
	}
	return v * (f.rscale[i] * f.cscale[j])
}

// normInfA2 returns ‖A₂‖∞ of the matrix the kernels factor, read
// through a's permutations and scales (colOf is SymPerm's inverse), bit
// for bit the NormInf of a permuted and scaled copy: every row sum
// accumulates its terms in ascending column of A₂.
func (f *Factorization) normInfA2(a *sparse.CSC, colOf []int) float64 {
	sums := make([]float64, a.NRows)
	for j, jo := range colOf {
		rows, vals := a.Col(jo)
		for k, io := range rows {
			i := f.S.SolvePerm[io]
			sums[i] += math.Abs(f.a2(vals[k], i, j))
		}
	}
	m := 0.0
	for _, v := range sums {
		if v > m {
			m = v
		}
	}
	return m
}

// rowOffset locates the stacked row offset of global scalar row g in
// block column c; ok is false when the row's block is not stored there.
func (f *Factorization) rowOffset(c *blockCol, g int) (off int, ok bool) {
	part := f.S.Part
	bi := part.ColToBlock[g]
	t := findBlock(c.blockRows, bi)
	if t < 0 {
		return 0, false
	}
	return c.offsets[t] + g - part.BlockStart[bi], true
}

// runTask dispatches one task of the dependence graph.
func (f *Factorization) runTask(id int) error {
	t := f.S.Graph.Tasks[id]
	if t.Kind == taskgraph.Factor {
		return f.factorPanel(t.K)
	}
	return f.update(t.K, t.J)
}

// firstNonFinite returns the index of the first NaN or Inf in x, or -1.
// The vector scan clears the common case; only a failed scan walks x.
func firstNonFinite(x []float64) int {
	if blas.AllFinite(x) {
		return -1
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// factorPanel performs task F(K): dense LU with partial pivoting on the
// stacked L panel of block column K. Pivoting is confined to the panel's
// static row set, which the George–Ng structure is closed under. Under
// PivotFail a zero pivot flags the factorization singular (the panel
// still completes); under PivotPerturb tiny pivots are replaced by
// ±pivotTol and recorded. A non-finite panel entry aborts the execution.
func (f *Factorization) factorPanel(k int) error {
	c := &f.cols[k]
	w := c.width
	po := c.panelOffset()
	m := c.rows - po
	panel := c.data[po*w : c.rows*w]
	ipiv := f.ipiv[k]
	base := f.S.Part.BlockStart[k]
	var pbuf []int
	if f.perturbScratch != nil {
		pbuf = f.perturbScratch[base : base+w]
	}
	np, firstZero := blas.DgetrfStatic(m, w, panel, w, ipiv, f.pivotTol, pbuf)
	// The panel LU records panel rows; every reader wants global ones.
	for lc, r := range ipiv {
		if r < w {
			ipiv[lc] = base + r
		} else {
			ipiv[lc] = c.globalRow(f.S.Part, po+r)
		}
	}
	if firstZero >= 0 {
		f.noteSingular(base + firstZero)
	}
	if np > 0 {
		cols := pbuf[:np]
		for i := range cols {
			cols[i] += base
		}
		f.perturbed[k] = cols
	}
	if i := firstNonFinite(panel); i >= 0 {
		return fmt.Errorf("core: panel %d entry (%d,%d) is %v: %w",
			k, i/w, i%w, panel[i], ErrNonFinite)
	}
	// Pack the sub-diagonal rows once, α = −1 folded in, for every
	// U(K,J) of the panel: they are final from here on.
	if p, ok := f.panel(k); ok {
		p.Pack(-1, panel[w*w:], w)
	}
	return nil
}

// panel returns the packed view of panel k's sub-diagonal rows, or
// false when the plan gave it no window or the numeric phase runs
// without a slab.
func (f *Factorization) panel(k int) (blas.Panel, bool) {
	lay := f.S.layout
	start, end := 0, lay[k].packEnd
	if k > 0 {
		start = lay[k-1].packEnd
	}
	if f.pack == nil || start == end {
		return blas.Panel{}, false
	}
	c := &lay[k]
	nv, _ := blas.PanelSize(c.subRows(), c.width)
	return blas.Panel{M: c.subRows(), K: c.width, Vals: f.pack.vals[4*start:][:nv], Ints: f.pack.ints[start:end]}, true
}

// update performs task U(K, J): replay panel K's pivot interchanges on
// block column J, solve for the U block with the unit-lower diagonal
// factor of K, and apply the Schur updates of K's sub-diagonal blocks —
// all on the stored blocks only. Symbolic.Graph has a task only for a
// stored block (K,J); the early return for one that is not stored serves
// only the copies that run the block-level closure graph on the stored
// layout (the experiments' real-mode timings), where such a task has
// nothing to do. An interchange or a Schur update whose other block is
// missing from column J is skipped too. That drops no non-zero because Ā
// is closed under elimination for every pivot sequence: the candidate
// rows of a step share the pivot row's structure to its right, so a row
// without a block in column J exchanges with a row that is zero there,
// and (i,k), (k,j) ∈ Ā imply (i,j) ∈ Ā, so a missing target block would
// only receive products with a structurally zero factor. The first of
// the two is checked, and its violation returned as an error so the
// executor can report which task failed.
func (f *Factorization) update(k, j int) error {
	colK := &f.cols[k]
	colJ := &f.cols[j]
	tk := findBlock(colJ.blockRows, k)
	if tk < 0 {
		return nil
	}
	wk, wj := colK.width, colJ.width
	bkjOff := colJ.offsets[tk]

	// 1. Replay σ_K on the rows of column J that lie in panel K. Global
	// row base+c is row c of the diagonal block, so of block (K,J).
	base := f.S.Part.BlockStart[k]
	for c, g := range f.ipiv[k] {
		if g == base+c {
			continue
		}
		rowC := colJ.data[(bkjOff+c)*wj:][:wj]
		o2, ok := f.rowOffset(colJ, g)
		if !ok {
			// Row r is zero throughout column J, so row c must be too
			// and there is nothing to exchange. A corrupted value is
			// reported as what it is, not as a structural mismatch.
			if i := firstNonFinite(rowC); i >= 0 {
				return fmt.Errorf("core: block (%d,%d) entry (%d,%d) is %v: %w", k, j, c, i, rowC[i], ErrNonFinite)
			}
			for _, v := range rowC {
				if v != 0 {
					return fmt.Errorf("core: panel %d exchanges row %d with row %d, whose block is missing in column %d, but the former holds %v there",
						k, base+c, g, j, v)
				}
			}
			continue
		}
		blas.Dswap(wj, rowC, 1, colJ.data[o2*wj:], 1)
	}

	// 2. U(K,J) ← L(K,K)⁻¹ · B(K,J).
	diag := colK.data[colK.panelOffset()*wk:]
	bkj := colJ.data[bkjOff*wj:]
	blas.Dtrsm(true, true, wk, wj, 1, diag, wk, bkj, wj)
	// Every stored block is either an L-panel block (checked by its
	// panel's Factor task) or a U block checked here, right after the
	// only task that finalizes it — so each entry is validated exactly
	// once and a NaN/Inf aborts the execution promptly.
	if i := firstNonFinite(bkj[:wk*wj]); i >= 0 {
		return fmt.Errorf("core: block (%d,%d) entry (%d,%d) is %v after update: %w",
			k, j, i/wj, i%wj, bkj[i], ErrNonFinite)
	}

	// 3. B(I,J) ← B(I,J) − L(I,K)·U(K,J) for every sub-diagonal block of
	// panel K whose target is stored, one Dgemm per run of such blocks
	// (nextRun): a run's rows are contiguous in both slabs. A run that
	// Dgemm would send down its packed path reads the rows F(K) packed,
	// bitwise the same product.
	pk, packed := f.panel(k)
	sub := colK.panelOffset() + wk
	t, tj := colK.diagIdx+1, tk+1
	for {
		var n int
		t, tj, n = nextRun(colK.blockRows, colJ.blockRows, t, tj)
		if n == 0 {
			return nil
		}
		rows := colK.rowEnd(t+n-1) - colK.offsets[t]
		lik := colK.data[colK.offsets[t]*wk:]
		dst := colJ.data[colJ.offsets[tj]*wj:]
		if packed && blas.PackedShape(rows, wj, wk) {
			blas.DgemmPanel(&pk, colK.offsets[t]-sub, rows, wj, bkj, wj, dst, wj)
		} else {
			blas.Dgemm(rows, wj, wk, -1, lik, wk, bkj, wj, 1, dst, wj)
		}
		t, tj = t+n, tj+n
	}
}

// packSlab is one factorization's storage of packed L panels: the
// blas.Panel of panel K takes ints [p, q) and values from 4p, where
// [p, q) is K's window in the layout (colLayout.packEnd);
// blas.PanelSize's vals ≤ 4·ints keeps the value windows disjoint.
type packSlab struct {
	vals []float64
	ints []int32
}

// The pack freelist recycles slabs across factorizations, like blas's
// packing scratch: a slab is taken when the numeric phase starts and
// put back when it ends, so the Factorization keeps none and a
// steady-state factorization neither allocates nor zeroes one. No value
// needs clearing between uses: F(K) writes every value of its window
// that an update reads. At most packMaxFree idle slabs are retained;
// when the list is full, a returned slab replaces the smallest one if
// it is larger, so idle retention stays below packMaxFree times the
// largest slab any pattern needed.
var (
	packMu   sync.Mutex
	packFree []*packSlab
)

const packMaxFree = 4

// getPackSlab returns a slab of n ints and 4n values from the freelist,
// or a new one when no idle slab is large enough; nil when n is 0.
func getPackSlab(n int) *packSlab {
	if n == 0 {
		return nil
	}
	packMu.Lock()
	for i := len(packFree) - 1; i >= 0; i-- {
		if s := packFree[i]; cap(s.ints) >= n {
			packFree = slices.Delete(packFree, i, i+1)
			packMu.Unlock()
			s.vals, s.ints = s.vals[:4*n], s.ints[:n]
			return s
		}
	}
	packMu.Unlock()
	return &packSlab{vals: make([]float64, 4*n), ints: make([]int32, n)}
}

// putPackSlab returns s (nil is ignored) to the freelist.
func putPackSlab(s *packSlab) {
	if s == nil {
		return
	}
	packMu.Lock()
	defer packMu.Unlock()
	if len(packFree) < packMaxFree {
		packFree = append(packFree, s)
		return
	}
	small := 0
	for i, t := range packFree {
		if cap(t.ints) < cap(packFree[small].ints) {
			small = i
		}
	}
	if cap(packFree[small].ints) < cap(s.ints) {
		packFree[small] = s
	}
}

// nextRun is one step of the merge walk of update's Schur step over
// panel K's block rows rowsK and column J's rowsJ, both ascending:
// starting at index t of rowsK and tj of rowsJ, it finds the first block
// row present in both and extends it over the following entries that
// are equal in both lists. It returns where the run starts in each list
// and its length n, 0 when no common block row is left. The blocks of a
// run are stacked back to back in both columns, so one Dgemm covers
// them, and Dgemm computes every row of C on its own, so the merged call
// is bitwise the per-block calls.
func nextRun(rowsK, rowsJ []int, t, tj int) (int, int, int) {
	for t < len(rowsK) && tj < len(rowsJ) {
		switch {
		case rowsJ[tj] < rowsK[t]:
			tj++
		case rowsJ[tj] > rowsK[t]:
			t++
		default:
			n := 1
			for t+n < len(rowsK) && tj+n < len(rowsJ) && rowsK[t+n] == rowsJ[tj+n] {
				n++
			}
			return t, tj, n
		}
	}
	return t, tj, 0
}
