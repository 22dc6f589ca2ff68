package main

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"time"

	sparselu "repro"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/etree"
	"repro/internal/ordering"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
	"repro/internal/trace"
	"repro/internal/transversal"
)

// This file is the only one that calls into internal/* layer by layer.
// Every layer is timed from outside, in a span around the call; the
// only in-program data used are the public Options.Trace recorder and
// the server's /metrics.

// layerPass is the state the per-layer measurements share: where the
// values and spans go, and round 0's matrix, which they all run on.
type layerPass struct {
	e     *env
	ms    *metricSet
	spans *spanLog
	root  int // the span all layer measurements hang under
	t     *tally
	// e2e and untraced are the untraced pass's metrics and samples:
	// derived ratios read them, nothing flows back.
	e2e      *metricSet
	untraced *roundSamples
	m        *sparselu.Matrix
	a        *sparse.CSC
}

// tracedPass runs one spanned round of the end-to-end phases and then
// the per-layer measurements, on round 0's inputs.
func (e *env) tracedPass(e2e *metricSet, untraced *roundSamples, t *tally) (*metricSet, *spanLog) {
	spans := newSpanLog()
	p := &layerPass{e: e, ms: newMetricSet(perLayer), spans: spans, t: t, e2e: e2e, untraced: untraced,
		m: e.in.rounds[0], a: e.in.rounds[0].CSC()}

	// One round of the end-to-end phases, as spans. Of its samples only
	// those of the phases the untraced rounds leave out are used.
	var traced roundSamples
	e.spans = spans
	e.round = spans.begin("round", 0)
	e.runRound(0, &traced, t)
	spans.end(e.round)
	e.spans = nil
	if e.kept.parFactor == nil || e.kept.serialFactor == nil {
		return p.ms, spans // the round failed and said so
	}

	p.root = spans.begin("layers", 0)
	defer spans.end(p.root)
	rp, whole := p.analyze()
	if whole == nil {
		return p.ms, spans
	}
	p.engine(whole.Symbolic())
	tf := p.numeric(whole.Symbolic(), rp.total)
	if tf == nil {
		return p.ms, spans
	}
	p.solves(tf, &traced)
	p.reanalysis(whole, &traced)
	p.matrixMarket()
	return p.ms, spans
}

// orUnmeasured sets a metric only a host with two processors can
// measure.
func (p *layerPass) orUnmeasured(name string, v func() float64) {
	if p.e.procs >= 2 {
		p.ms.set(name, v())
	} else {
		p.ms.unmeasured(name)
	}
}

// analyze times Analyze stage by stage and as the whole call, and reads
// the structural counts off the replay.
func (p *layerPass) analyze() (*replayed, *sparselu.Analysis) {
	ms, spans, t := p.ms, p.spans, p.t
	// Both are timed analyzePasses times, alternating, and the faster
	// sample of each is kept: their ratio says whether the replay is the
	// pipeline, and one slow spell of the host must not decide that.
	var rp *replayed
	var whole *sparselu.Analysis
	wholeS := math.Inf(1)
	for pass := 0; pass < analyzePasses; pass++ {
		collect()
		next, err := replayAnalyze(spans, p.root, p.a, t)
		if err != nil {
			return nil, nil // counted as failed where it happened
		}
		if rp != nil {
			next.keepFaster(rp)
		}
		rp = next
		collect()
		d := spans.in("sparselu.Analyze[serial]", p.root, func(int) {
			whole, err = sparselu.Analyze(p.m, serialOptions())
		})
		if !t.op(err) {
			return nil, nil
		}
		wholeS = math.Min(wholeS, d)
	}
	var stages float64
	for i, name := range rp.names {
		stages += rp.seconds[i]
		if name != checkpointStage {
			ms.set(name, rp.seconds[i])
		}
	}
	ms.set("core.analyze_serial_s", wholeS)
	ms.set("core.analyze_replay_coverage", stages/wholeS)

	// The alternative symbolic stage core.Analyze takes at
	// AnalyzeWorkers > 1: column-etree subtrees as independent tasks on
	// the async engine.
	procs := p.e.procs
	p.orUnmeasured("symbolic.factor_par_s", func() float64 {
		runner := func(ntasks int, run func(i int) error) error {
			if ntasks == 0 {
				return nil
			}
			g := taskgraph.Independent(ntasks)
			return sched.Execute(g, sched.BlockCyclic(ntasks, procs), procs, nil, run)
		}
		collect()
		return spans.in("symbolic.factor_par_s", p.root, func(int) {
			par, err := symbolic.FactorParallel(rp.ordered, procs, runner)
			if t.op(err) {
				t.count(par.NNZ() == rp.sym.NNZ())
			}
		})
	})

	// Structural counts, read where the work happens and checked
	// against what the whole call reports.
	st := whole.Stats()
	t.count(st.FactorNNZ == rp.sym.NNZ() && st.Tasks == rp.graph.NumTasks() && st.Edges == rp.graph.NumEdges &&
		st.Supernodes == rp.part.NumBlocks() && st.DiagonalBlocks == rp.forest.NumTrees() && st.ExplicitZeros == rp.zeros)
	ms.set("symbolic.fill_nnz", float64(rp.sym.NNZ()))
	ms.set("etree.trees", float64(rp.forest.NumTrees()))
	ms.set("supernode.blocks", float64(rp.part.NumBlocks()))
	ms.set("supernode.avg_width", rp.part.AvgSize())
	ms.set("supernode.explicit_zero_ratio", float64(rp.zeros)/float64(rp.zeros+rp.sym.NNZ()))
	ms.set("taskgraph.tasks", float64(rp.graph.NumTasks()))
	ms.set("taskgraph.edges", float64(rp.graph.NumEdges))
	ms.set("taskgraph.total_flops", rp.total)
	ms.set("taskgraph.critical_path_share", rp.cp/rp.total)
	return rp, whole
}

// engine times the executors over the workload's real graphs with empty
// task bodies.
func (p *layerPass) engine(s *core.Symbolic) {
	prio, err := s.Graph.BottomLevels(s.Costs.TaskFlops)
	p.t.op(err)
	dispatch := func(name string, procs int) float64 {
		owner := sched.BlockCyclic(s.BlockSym.N, procs)
		return p.perTaskNs(name, s.Graph.NumTasks(), func() {
			p.t.op(sched.Execute(s.Graph, owner, procs, prio, func(int) error { return nil }))
		})
	}
	p.ms.set("sched.dispatch_ns_per_task", dispatch("sched.Execute[empty,P=1]", 1))
	p.orUnmeasured("sched.dispatch_par_ns_per_task", func() float64 {
		return dispatch("sched.Execute[empty,P]", p.e.procs)
	})
	p.ms.set("sched.levels_ns_per_task", p.perTaskNs("sched.ExecuteLevels[empty]",
		s.SolveFwd.NumTasks()+s.SolveBwd.NumTasks(), func() {
			sched.ExecuteLevels(s.SolveFwd, p.e.procs, func(int, int) {})
			sched.ExecuteLevels(s.SolveBwd, p.e.procs, func(int, int) {})
		}))
}

// numeric traces one factorization at P = 1 — who is busy, and what is
// not a task — and one at P for the realized utilization, times the
// dense kernels, and sets the ratios between them. It returns the P = 1
// factorization and the recorder it reports to.
func (p *layerPass) numeric(s *core.Symbolic, totalFlops float64) *tracedFactors {
	ms, spans, t, e2e := p.ms, p.spans, p.t, p.e2e
	tf := &tracedFactors{rec: trace.New(1)}
	var err error
	collect()
	tracedS := spans.in("core.Factorize[traced,P=1]", p.root, func(int) {
		tf.f, err = core.FactorizeWithOpts(s, p.a, &core.NumericOptions{Workers: 1, SolveWorkers: 1, Trace: tf.rec})
	})
	if !t.op(err) {
		return nil
	}
	sum := trace.Summarize(tf.rec.Events(), 1)
	ms.set("core.factor_busy_s", kindSeconds(sum, trace.KindFactor))
	ms.set("core.update_busy_s", kindSeconds(sum, trace.KindUpdate))
	ms.set("core.numeric_nontask_s", tracedS-float64(sum.TotalBusy)/1e9)
	ms.set("core.trace_overhead_ratio", tracedS/e2e.get("factor_s"))

	procs := p.e.procs
	p.orUnmeasured("sched.par_utilization", func() float64 {
		rec := trace.New(procs)
		rec.SetSchedEvents(true)
		collect()
		spans.in("core.Factorize[traced,P]", p.root, func(int) {
			_, err = core.FactorizeWithOpts(s, p.a, &core.NumericOptions{Workers: procs, Trace: rec})
		})
		t.op(err)
		util := 0.0
		for _, ws := range trace.Summarize(rec.Events(), procs).WorkerStats {
			util += ws.Utilization / float64(procs)
		}
		return util
	})

	kernelMetrics(ms, spans, p.root, p.e.smoke)
	gflops := totalFlops / e2e.get("factor_s") / 1e9
	ms.set("core.numeric_gflops", gflops)
	ms.set("core.kernel_gap", gflops/ms.get("blas.dgemm_256_gflops"))
	// The Analyze and Factorize parts of time_to_solution_s: at P
	// workers, or at 1 on a host that has no second processor.
	ms.set("core.analyze_s", median(p.untraced.analyze))
	ms.set("core.factor_par_s", median(p.untraced.factorPar))
	p.orUnmeasured("core.par_speedup", func() float64 { return e2e.get("factor_s") / ms.get("core.factor_par_s") })
	return tf
}

// tracedFactors is a factorization whose solves can report to rec.
type tracedFactors struct {
	f   *core.Factorization
	rec *trace.Recorder
}

// solves reports the untraced rounds' single solves and the traced
// round's 16-RHS solves, and times the triangular solves used four more
// ways: traced for the sweeps' busy time, at P workers, transposed and
// refined.
func (p *layerPass) solves(tf *tracedFactors, traced *roundSamples) {
	ms, rhs, kept := p.ms, p.e.in.rhs, p.e.kept
	ms.set("core.solve_s", median(p.untraced.solve))
	const batch = 8
	solveBatch := func(name string, call func(b []float64) ([]float64, error), check func(x, b []float64) bool) float64 {
		xs := make([][]float64, batch)
		errs := make([]error, batch)
		collect()
		d := p.spans.in(name, p.root, func(int) {
			for i := range xs {
				xs[i], errs[i] = call(rhs[i%len(rhs)])
			}
		})
		for i := range xs {
			if p.t.op(errs[i]) {
				p.t.count(check(xs[i], rhs[i%len(rhs)]))
			}
		}
		return d / batch
	}
	direct := func(x, b []float64) bool { return solves(p.m, x, b) }
	tf.rec.Reset()
	solveBatch("core.Solve[traced]", func(b []float64) ([]float64, error) {
		return tf.f.SolveWith(b, &core.NumericOptions{SolveWorkers: 1, Trace: tf.rec})
	}, direct)
	sum := trace.Summarize(tf.rec.Events(), 1)
	ms.set("core.solve_fwd_busy_s", kindSeconds(sum, trace.KindSolveL)/batch)
	ms.set("core.solve_bwd_busy_s", kindSeconds(sum, trace.KindSolveU)/batch)
	p.orUnmeasured("core.solve_par_s", func() float64 { return solveBatch("Solve[P]", kept.parFactor.Solve, direct) })
	mt := sparselu.WrapCSC(p.a.Transpose())
	ms.set("core.solve_transpose_s", solveBatch("SolveTranspose", kept.serialFactor.SolveTranspose,
		func(x, b []float64) bool { return solves(mt, x, b) }))
	ms.set("core.solve_refined_s", solveBatch("SolveRefined", func(b []float64) ([]float64, error) {
		x, _, _, err := kept.serialFactor.SolveRefined(b, 2, 0)
		return x, err
	}, direct))
	ms.set("core.solve16_s", median(traced.solve16))
	ms.set("core.solve16_per_rhs_ratio", ms.get("core.solve16_s")/(manyRHS*ms.get("core.solve_s")))
}

// reanalysis times Reanalyze on an identical pattern — hash, compare,
// return — and reports the traced round's Reanalyze calls on edited
// patterns: how long they took and how many took the delta path.
func (p *layerPass) reanalysis(whole *sparselu.Analysis, traced *roundSamples) {
	const calls = 100
	collect()
	p.ms.set("core.reanalyze_full_s", p.spans.in("Reanalyze[identical]", p.root, func(int) {
		for i := 0; i < calls; i++ {
			_, level, err := whole.Reanalyze(p.m)
			p.t.count(err == nil && level == sparselu.ReuseFull)
		}
	})/calls)
	share := math.NaN()
	if traced.reanalyses > 0 {
		share = float64(traced.deltas) / float64(traced.reanalyses)
	}
	p.ms.set("core.reanalyze_delta_s", median(traced.reanalyze))
	p.ms.set("core.reanalyze_delta_share", share)
}

// matrixMarket writes round 0's matrix as Matrix Market text once and
// times reading it back a few times.
func (p *layerPass) matrixMarket() {
	var buf bytes.Buffer
	p.t.op(sparse.WriteMatrixMarket(&buf, p.a))
	const reads = 10
	collect()
	d := p.spans.in("sparse.ReadMatrixMarket", p.root, func(int) {
		for i := 0; i < reads; i++ {
			back, err := sparse.ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
			p.t.count(err == nil && back.NNZ() == p.a.NNZ())
		}
	})
	p.ms.set("sparse.mm_read_mb_per_s", reads*float64(buf.Len())/1e6/d)
}

// analyzePasses is how often the traced pass times the Analyze replay
// and the whole Analyze call.
const analyzePasses = 2

// checkpointStage is the replay's last span: what is left of
// core.Analyze and is exported — the Reanalyze checkpoint, the
// explicit-zero count and the pattern hash. It has no metric of its own
// but counts towards the replay's coverage. The solve schedules are
// built by an unexported function: they are the part of the whole call
// the replay does not cover.
const checkpointStage = "core.checkpoint"

// replayed is one stage-by-stage replay of core.Analyze: the seconds of
// every stage, in order, and the structures the later measurements and
// the structural counts need.
type replayed struct {
	names   []string
	seconds []float64

	ordered   *sparse.CSC // after transversal and fill ordering, before the postorder
	sym       *symbolic.Result
	forest    *etree.Forest
	part      *supernode.Partition
	graph     *taskgraph.Graph
	cp, total float64
	zeros     int
}

// keepFaster replaces every stage's seconds by the other replay's where
// those are lower.
func (r *replayed) keepFaster(other *replayed) {
	for i := range r.seconds {
		r.seconds[i] = math.Min(r.seconds[i], other.seconds[i])
	}
}

// replayAnalyze runs core.Analyze's sequence from outside, with the same
// exported functions and the default options, one span per stage.
func replayAnalyze(spans *spanLog, parent int, a *sparse.CSC, t *tally) (*replayed, error) {
	o := core.DefaultOptions()
	r := &replayed{}
	id := spans.begin("analyze_replay", parent)
	defer spans.end(id)
	stage := func(name string, f func()) {
		r.names = append(r.names, name)
		r.seconds = append(r.seconds, spans.in(name, id, func(int) { f() }))
	}
	var (
		ap, aPerm   *sparse.CSC
		blockSym    *symbolic.Result
		blockForest *etree.Forest
		blocks      *sparse.Pattern
		err         error
	)
	stage("transversal.match_s", func() {
		tr := transversal.MaximumTransversal(a)
		t.count(tr.StructurallyNonsingular())
		ap = a.PermuteRows(tr.RowPerm)
	})
	stage("ordering.colorder_s", func() {
		fill := ordering.ColumnOrdering(ap, o.Ordering)
		ap = ap.PermuteSym(fill)
	})
	stage("symbolic.factor_s", func() {
		r.sym, err = symbolic.Factor(ap)
		if t.op(err) {
			r.forest = etree.LUForest(r.sym)
		}
	})
	if err != nil {
		return nil, err
	}
	r.ordered = ap
	stage("etree.postorder_s", func() {
		po := etree.PostorderSymbolic(r.sym, r.forest)
		r.sym, r.forest = po.Sym, po.Forest
		aPerm = ap.PermuteSym(po.Perm)
	})
	stage("supernode.partition_s", func() {
		blas.AutotuneOnce()
		strict := supernode.StrictPartition(r.sym)
		merged := supernode.Amalgamate(strict, r.sym, o.Amalgamation)
		r.part = supernode.Split(merged, o.Amalgamation.MaxSize)
		blocks = supernode.BlockPattern(r.sym, r.part)
	})
	stage("symbolic.block_factor_s", func() {
		blockSym, err = symbolic.Factor(blocks.ToCSC(1))
		if t.op(err) {
			blockForest = etree.LUForest(blockSym)
		}
	})
	if err != nil {
		return nil, err
	}
	stage("taskgraph.build_s", func() {
		r.graph = taskgraph.New(blockSym, blockForest, o.TaskGraph)
		costs := taskgraph.NewCostModel(r.graph, blockSym, r.part)
		r.cp, r.total, err = r.graph.CriticalPath(costs.TaskFlops)
		t.op(err)
	})
	stage(checkpointStage, func() {
		sparse.PatternOf(aPerm)
		symbolic.PartitionColumns(aPerm, 4)
		r.zeros = supernode.ExplicitZeros(r.sym, r.part, blocks)
		core.PatternHash(a, o)
	})
	return r, err
}

// perTaskNs times repetitions of run, at least three and (but in the
// smoke shape) at least 50 ms of them, as one span, and returns
// nanoseconds per task.
func (p *layerPass) perTaskNs(name string, tasks int, run func()) float64 {
	atLeast := 50 * time.Millisecond
	if p.e.smoke {
		atLeast = 0
	}
	collect()
	reps := 0
	d := p.spans.in(name, p.root, func(int) {
		for start := time.Now(); reps < 3 || time.Since(start) < atLeast; reps++ {
			run()
		}
	})
	return d * 1e9 / float64(reps*tasks)
}

func kindSeconds(s *trace.Summary, k trace.Kind) float64 {
	for _, ks := range s.KindStats {
		if ks.Kind == k {
			return float64(ks.Total) / 1e9
		}
	}
	return 0
}

// kernelMetrics times the dense kernels the numeric phase is built
// from: each sample is a back-to-back batch well above 20 ms, each
// metric the median of five samples (one short sample in the smoke
// shape).
func kernelMetrics(ms *metricSet, spans *spanLog, parent int, smoke bool) {
	samplesPer, shrink := 5, 1
	if smoke {
		samplesPer, shrink = 1, 12
	}
	rng := rand.New(rand.NewSource(42))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	rate := func(metric string, flops float64, calls int, call func()) {
		var samples []float64
		root := spans.begin(metric, parent)
		calls /= shrink
		for rep := 0; rep < samplesPer; rep++ {
			d := spans.in("batch", root, func(int) {
				for i := 0; i < calls; i++ {
					call()
				}
			})
			samples = append(samples, flops*float64(calls)/d/1e9)
		}
		spans.end(root)
		ms.set(metric, median(samples))
	}
	{
		const n = 256
		a, b, c := fill(n*n), fill(n*n), fill(n*n)
		rate("blas.dgemm_256_gflops", 2*n*n*n, 12, func() { blas.Dgemm(n, n, n, 1, a, n, b, n, 1, c, n) })
	}
	{
		// The narrow-panel shape: a 64-row block updated through a
		// 4-wide supernode.
		const m, n, k = 64, 4, 4
		a, b, c := fill(m*k), fill(k*n), fill(m*n)
		rate("blas.dgemm_small_gflops", 2*m*n*k, 100_000, func() { blas.Dgemm(m, n, k, -1, a, k, b, n, 1, c, n) })
	}
	{
		const m, n = 256, 256
		tri := fill(m * m)
		for i := 0; i < m; i++ {
			tri[i*m+i] += m
		}
		x := fill(m * n)
		rate("blas.dtrsm_256_gflops", m*m*n, 12, func() { blas.Dtrsm(true, true, m, n, 1, tri, m, x, n) })
	}
	{
		const m, n = 1024, 32
		orig := fill(m * n)
		a := make([]float64, m*n)
		ipiv := make([]int, n)
		flops := 2*float64(m)*n*n - 2.0/3.0*n*n*n
		rate("blas.panel_lu_1024x32_gflops", flops, 24, func() {
			copy(a, orig) // LU overwrites the panel
			blas.DgetrfStatic(m, n, a, n, ipiv, 0, nil)
		})
	}
}

// serviceMetrics reduces the untraced request script and what the
// server's own counters moved by during it to the server.* metrics.
func (e *env) serviceMetrics(ms *metricSet, s *roundSamples, c serverCounters) {
	ms.set("server.cache_hit_ratio", float64(c.Cache.Hits)/float64(c.Cache.Hits+c.Cache.Misses))
	ms.set("server.batch_mean_rhs", float64(c.Batcher.RHS)/float64(c.Batcher.Batches))
	ms.set("server.shed", float64(c.Shed))
	ms.set("server.request_mb", float64(e.svc.sent)/1e6)
	ms.set("server.solve_p50_ms", median(s.svcSolve))
	ms.set("server.factorize_p50_ms", median(s.svcFactorize))
	ms.set("server.solve_p90_ms", quantile(s.svcSolve, 0.9))
	ms.set("server.factorize_p90_ms", quantile(s.svcFactorize, 0.9))
	ms.set("server.solve_overhead_ms", ms.get("server.solve_p50_ms")-1000*ms.get("core.solve_s"))
	ms.set("server.factorize_overhead_ratio", ms.get("server.factorize_p50_ms")/(1000*ms.get("core.factor_par_s")))
	ms.set("server.solve_samples", float64(len(s.svcSolve)))
	ms.set("server.factorize_samples", float64(len(s.svcFactorize)))
	ms.set("host.calib_s", median(s.calib))
	ms.set("host.nproc", float64(runtime.NumCPU()))
}
