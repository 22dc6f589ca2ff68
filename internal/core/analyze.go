package core

import (
	"fmt"

	"repro/internal/etree"
	"repro/internal/luerr"
	"repro/internal/ordering"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
	"repro/internal/trace"
	"repro/internal/transversal"
	"repro/internal/verify"
)

// Symbolic is the reusable output of the analysis pipeline. It depends
// only on the sparsity structure of the matrix, so one analysis serves
// any number of numeric factorizations with the same structure.
type Symbolic struct {
	N int
	// RowPerm is the maximum-transversal row permutation (applied
	// first): row i of A moves to row RowPerm[i].
	RowPerm sparse.Perm
	// SymPerm is the symmetric permutation applied after the transversal
	// (fill-reducing ordering composed with the postorder).
	SymPerm sparse.Perm
	// Part is the supernode partition (after amalgamation).
	Part *supernode.Partition
	// Stored is the block structure of Ā under Part — block (I,J) is
	// present iff Ā has an entry inside it — split into its L (by
	// columns) and URows (U by rows) views. It is what the numeric phase
	// allocates and updates, what the solve schedules chain on and what
	// Costs charges: Ā is closed under elimination for every pivot
	// sequence, so no entry outside these blocks ever becomes non-zero.
	Stored *symbolic.Result
	// BlockSym is the static symbolic factorization of the supernode
	// block matrix: Stored re-closed under George–Ng at block
	// granularity. It is a scheduling structure only, never allocated:
	// the run path reads it only for its LU eforest, BlockForest, whose
	// chains Graph follows; the paper's task graphs (taskgraph.New, both
	// variants) and Stats' closure counts are built on it. No
	// factorization or solve reads BlockSym or BlockForest after
	// Analyze; the remaining readers are the experiments' closure-graph
	// tables and timings, the golden hashes, the closure sizes splu and
	// matinfo print, and bench/layers.go's BlockSym.N. ROADMAP's deletion
	// sweep (the item the bench decoupling unlocks) makes them transients
	// of Analyze too (a further 3.0 MB on sherman3, 1.0 MB on lnsp3937;
	// it keeps L̄ by columns and Ū by rows, no column view of Ū).
	BlockSym *symbolic.Result
	// BlockForest is the LU eforest of the block matrix.
	BlockForest *etree.Forest
	// Graph is the task dependence graph the numeric phase runs: the
	// eforest-guided Theorem-4 graph on the stored blocks
	// (taskgraph.NewStored), one task per block column and per stored
	// off-diagonal block of Ū.
	Graph *taskgraph.Graph
	// Costs estimates per-task flops of Graph on Stored for scheduling
	// and simulation.
	Costs *taskgraph.CostModel
	// Prio holds the scheduling priorities of the numeric phase: Graph's
	// bottom levels under Costs, computed once per pattern. Whoever puts
	// another Graph or Costs on a copy recomputes it with them.
	Prio []float64
	// SolveFwd and SolveBwd are level-set schedules of the forward (L̄)
	// and backward (Ū) solve sweeps (solvegraph.go); the solves run
	// serially and do not read them. Only bench/layers.go reads them
	// (sched.levels_ns_per_task); ROADMAP's deletion sweep deletes them.
	SolveFwd, SolveBwd *sched.Levels
	// SolvePerm is RowPerm composed with SymPerm — the permutation the
	// solves apply to a right-hand side in one pass:
	// y[SolvePerm[i]] = b[i].
	SolvePerm sparse.Perm
	// PatternHash fingerprints the input pattern together with the
	// analysis-shaping options (see PatternHash); Reanalyze uses it to
	// recognize an identical pattern and skip every structural stage.
	PatternHash string
	// StageSeconds is the per-stage wall-time breakdown of the analysis,
	// recorded only when Options.Trace is set.
	StageSeconds []StageTime
	// Stats summarizes the analysis.
	Stats AnalysisStats
	// Opts records the options the analysis ran with.
	Opts Options

	// layout is the block-column storage layout on Stored, shared by
	// every factorization of the pattern.
	layout []colLayout
}

// StageTime is one entry of the per-stage analyze timing breakdown.
type StageTime struct {
	Name    string
	Seconds float64
}

// AnalysisStats reports the quantities the paper's tables are built
// from.
type AnalysisStats struct {
	N            int     // matrix order
	NNZA         int     // nonzeros of A
	NNZFactors   int     // |Ā| after static symbolic factorization
	FillRatio    float64 // |Ā| / |A| (Table 1)
	Supernodes   int     // supernode count after amalgamation + splitting
	StrictSN     int     // supernode count before amalgamation (Table 3 SN/SNPO)
	NumTrees     int     // trees in the scalar eforest = diagonal blocks of the BUT form (Table 3 NoBlks)
	Blocks       int     // N of the block matrix
	BlockNNZ     int     // blocks of the block-level closure (scheduling only)
	TaskCount    int     // tasks of the paper's graph on the block-level closure (taskgraph.New, Table 2)
	EdgeCount    int     // its edges
	StoredTasks  int     // tasks of Graph, the stored-block graph the numeric phase runs
	StoredEdges  int     // its edges
	TotalFlops   float64 // the same on both graphs: a task of a block that is not stored weighs nothing
	CriticalPath float64 // flops along the weighted critical path, the same on both graphs
	// Partition stats of the structure-aware blocking (all structural:
	// they depend only on the pattern and the analysis options).
	SplitBlocks       int     // extra blocks the load-balance Split created
	MaxBlockWidth     int     // widest supernode block of the final partition
	AvgBlockWidth     float64 // mean block width of the final partition
	StoredBlocks      int     // blocks that hold an entry of Ā: the block structure the numeric phase runs on
	StoredEntries     int     // their total dense area; a factorization stores less (Symbolic.SlabEntries: of the sub-diagonal blocks, only the planned rows)
	ExplicitZeros     int     // StoredEntries − NNZFactors: the zeros of the dense blocks, not of the slab
	ExplicitZeroRatio float64 // ExplicitZeros / StoredEntries
	// AnalyzeSeconds is the wall-clock duration of the Analyze call
	// that produced this Symbolic. It is the only non-structural field:
	// comparisons across runs must ignore it.
	AnalyzeSeconds float64
}

// stageTimer accumulates the per-stage breakdown behind Options.Trace.
// It reads the clock through trace.Stopwatch — the sanctioned wall
// clock — so the timing stats never taint the structural outputs.
type stageTimer struct {
	enabled bool
	sw      trace.Stopwatch
	last    float64
	stages  []StageTime
}

func newStageTimer(enabled bool) *stageTimer {
	return &stageTimer{enabled: enabled, sw: trace.NewStopwatch()}
}

func (t *stageTimer) mark(name string) {
	if !t.enabled {
		return
	}
	now := t.sw.Seconds()
	t.stages = append(t.stages, StageTime{Name: name, Seconds: now - t.last})
	t.last = now
}

// ErrStructurallySingular is returned by Analyze when no row
// permutation puts a nonzero on every diagonal position, so that no
// choice of values makes the matrix nonsingular. It also matches
// luerr.ErrSingular.
var ErrStructurallySingular = luerr.Tag("core: matrix is structurally singular", luerr.ErrSingular)

// Analyze runs the full structural pipeline of the paper on a square
// sparse matrix, serially: one analysis serves every factorization of
// the pattern, so its cost is paid once.
func Analyze(a *sparse.CSC, opts *Options) (*Symbolic, error) {
	o := opts.withDefaults()
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("core: matrix must be square, got %d×%d", a.NRows, a.NCols)
	}
	n := a.NCols
	start := trace.NewStopwatch()
	st := newStageTimer(o.Trace != nil)

	// Step 0: zero-free diagonal via maximum transversal [Duff '81].
	tr := transversal.MaximumTransversal(a)
	if !tr.StructurallyNonsingular() {
		return nil, fmt.Errorf("%w (%d of %d columns matched)", ErrStructurallySingular, tr.MatchedCols, n)
	}
	a1 := a.PermuteRows(tr.RowPerm)
	st.mark("transversal")

	// Step 1: fill-reducing ordering, applied symmetrically so the
	// zero-free diagonal survives. Only the pattern is permuted: the
	// symbolic factorization reads no values.
	fill := ordering.ColumnOrdering(a1, o.Ordering)
	a2 := sparse.PatternView(a1).PermuteSym(fill)
	st.mark("ordering")

	// Step 2: static symbolic factorization (George & Ng).
	sym, err := symbolic.FactorPattern(a2)
	if err != nil {
		return nil, fmt.Errorf("core: symbolic factorization: %w", err)
	}
	forest := etree.LUForest(sym)
	st.mark("symbolic")

	// Step 3: postorder the LU eforest. By Theorem 3 the relabeled sym
	// is the static symbolic factorization of the postordered matrix, so
	// nothing is refactored — nor relabeled: the stages below read sym
	// through order (new label → old), which is exact (DESIGN §18).
	symPerm := fill
	var perm sparse.Perm
	var order []int // nil: the identity
	if o.Postorder {
		if o.Verify {
			if err := verify.VerifyPostorderInvariance(a1.PermuteSym(fill), sym, forest); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
		perm = forest.PostOrder()
		order = perm.Inverse()
		symPerm = fill.Compose(perm)
	}
	st.mark("postorder")

	// Step 4: L/U supernode partition, fill-ratio-driven amalgamation,
	// and load-balance splitting. Amalgamate merges while the explicit
	// zeros stay under MaxFill of the panel storage (no width cap);
	// Split then breaks blocks wider than MaxSize into near-equal
	// panels so dense-ish patterns don't collapse into one serial task.
	strict := supernode.StrictPartitionOrdered(sym, order)
	merged := supernode.AmalgamateOrdered(strict, sym, order, o.Amalgamation)
	part := supernode.Split(merged, o.Amalgamation.MaxSize)
	// The block structure of Ā under the partition is what gets stored;
	// the rows of its sub-diagonal blocks that can be non-zero are what
	// the solve reads.
	bp, plan := supernode.BlockPatternOrdered(sym, order, part, strict)
	st.mark("supernodes")

	// Step 5: its closure under block-level elimination, so that the
	// task graph theorems can rely on the static fixed-point properties
	// at block granularity.
	stored := symbolic.FromPattern(bp)
	blockSym, err := symbolic.FactorPattern(bp)
	if err != nil {
		return nil, fmt.Errorf("core: block symbolic factorization: %w", err)
	}
	blockForest := etree.LUForest(blockSym)
	st.mark("block symbolic")

	// Step 6: task dependence graph on the stored blocks, cost model and
	// priorities; the closure graph's counts are the paper's.
	graph := taskgraph.NewStored(blockForest, stored)
	closureTasks, closureEdges := taskgraph.ClosureCounts(blockSym, blockForest, taskgraph.EForest)
	costs := taskgraph.NewCostModel(graph, stored, part)
	prio, err := graph.BottomLevels(costs.TaskFlops)
	if err != nil {
		return nil, fmt.Errorf("core: task graph: %w", err)
	}
	// The critical path is the largest bottom level. Task flops are whole
	// numbers and every sum of them stays far below 2⁵³, so this and the
	// total are the forward walk's bit for bit.
	cp := 0.0
	for _, p := range prio {
		cp = max(cp, p)
	}
	total := costs.TotalFlops()
	st.mark("task graph")

	// Step 7: the level-set schedules of the solve sweeps, for bench/
	// only (see Symbolic.SolveFwd).
	solveFwd, solveBwd, err := solveSchedules(stored)
	if err != nil {
		return nil, err
	}
	st.mark("solve schedules")

	if o.Verify {
		// The checks read the scalar structure in the partition's labels.
		relabeled := sym
		if perm != nil {
			relabeled = etree.PermuteSymbolic(sym, perm)
		}
		if err := verify.VerifyStoredBlocks(relabeled, part, stored, blockSym); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if err := verify.VerifyDAG(graph); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if err := verify.VerifyLeastDependences(graph, blockForest); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	explicitZeros := supernode.ExplicitZeros(sym, part, bp)
	storedEntries := explicitZeros + sym.NNZ()
	zeroRatio := 0.0
	if storedEntries > 0 {
		zeroRatio = float64(explicitZeros) / float64(storedEntries)
	}

	s := &Symbolic{
		N:           n,
		RowPerm:     tr.RowPerm,
		SymPerm:     symPerm,
		Part:        part,
		Stored:      stored,
		BlockSym:    blockSym,
		BlockForest: blockForest,
		Graph:       graph,
		Costs:       costs,
		Prio:        prio,
		SolveFwd:    solveFwd,
		SolveBwd:    solveBwd,
		SolvePerm:   tr.RowPerm.Compose(symPerm),
		PatternHash: PatternHash(a, o),
		layout:      newLayout(stored, part, plan),
		Opts:        *o,
		Stats: AnalysisStats{
			N:            n,
			NNZA:         a.NNZ(),
			NNZFactors:   sym.NNZ(),
			FillRatio:    sym.FillRatio(a.NNZ()),
			Supernodes:   part.NumBlocks(),
			StrictSN:     strict.NumBlocks(),
			NumTrees:     forest.NumTrees(),
			Blocks:       blockSym.N,
			BlockNNZ:     blockSym.NNZ(),
			TaskCount:    closureTasks,
			EdgeCount:    closureEdges,
			StoredTasks:  graph.NumTasks(),
			StoredEdges:  graph.NumEdges,
			TotalFlops:   total,
			CriticalPath: cp,

			SplitBlocks:       part.NumBlocks() - merged.NumBlocks(),
			MaxBlockWidth:     part.MaxSize(),
			AvgBlockWidth:     part.AvgSize(),
			StoredBlocks:      stored.NNZ(),
			StoredEntries:     storedEntries,
			ExplicitZeros:     explicitZeros,
			ExplicitZeroRatio: zeroRatio,
		},
	}
	st.mark("stats")
	s.StageSeconds = st.stages
	s.Stats.AnalyzeSeconds = start.Seconds()
	return s, nil
}

// PermuteInput applies the analysis permutations to the original matrix,
// producing the matrix the numeric phase actually factors.
func (s *Symbolic) PermuteInput(a *sparse.CSC) *sparse.CSC {
	return a.PermuteRows(s.RowPerm).PermuteSym(s.SymPerm)
}

// Scalar rebuilds the scalar static symbolic factorization Ā of the fully
// permuted matrix and its LU eforest, which Analyze builds and drops: no
// factorization or solve reads them. By Theorem 3 the postorder relabeling
// of a static symbolic factorization is the static symbolic factorization
// of the relabeled matrix, so factoring PermuteInput(a) reproduces what
// Analyze computed bit for bit. a must have the pattern s was analyzed
// from.
func (s *Symbolic) Scalar(a *sparse.CSC) (*symbolic.Result, *etree.Forest, error) {
	if a.NRows != s.N || a.NCols != s.N {
		return nil, nil, fmt.Errorf("core: matrix is %d×%d, analysis is of order %d", a.NRows, a.NCols, s.N)
	}
	sym, err := symbolic.Factor(s.PermuteInput(a))
	if err != nil {
		return nil, nil, fmt.Errorf("core: symbolic factorization: %w", err)
	}
	return sym, etree.LUForest(sym), nil
}
