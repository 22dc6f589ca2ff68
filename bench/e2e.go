package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	sparselu "repro"
)

// residualTol is the scaled backward error above which a solution —
// from a library call or in a reply — counts as a failed operation.
const residualTol = 1e-10

// Per round, core.solve_s is sampled by solveBatches batches of
// solveBatch Solve calls (times the workload's solveReps); the traced
// round samples core.solve16_s by manyBatches batches of manyBatch
// SolveMany calls.
const (
	solveBatches, solveBatch = 3, 8
	manyBatches, manyBatch   = 3, 3
)

// tally counts operations attempted and failed. Clients report to it
// concurrently.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

func (t *tally) count(ok bool) {
	t.mu.Lock()
	t.attempted++
	if !ok {
		t.failed++
	}
	t.mu.Unlock()
}

// op counts one call by its error and reports whether it succeeded.
func (t *tally) op(err error) bool {
	if err != nil {
		fmt.Printf("FAILED: %v\n", err)
	}
	t.count(err == nil)
	return err == nil
}

// solves reports whether x solves m·x = b to within residualTol.
func solves(m *sparselu.Matrix, x, b []float64) bool {
	if len(x) != len(b) || len(x) != m.Order() {
		return false
	}
	r := sparselu.Residual(m, x, b)
	return r <= residualTol // false for NaN
}

// solved counts one library solve: its error, then its residual.
func (t *tally) solved(m *sparselu.Matrix, x, b []float64, err error) {
	if err != nil {
		t.op(err)
		return
	}
	t.count(solves(m, x, b))
}

// env is what set-up leaves for the measured rounds.
type env struct {
	w     *workload
	smoke bool
	procs int // P: workers of the parallel phases and number of clients
	in    *inputs
	svc   *service
	// serial is the analysis of round 0's pattern at Workers =
	// AnalyzeWorkers = SolveWorkers = 1. On a fixed-pattern workload it
	// serves factor_s and the solve phases of every round.
	serial *sparselu.Analysis

	// spans is set for the traced round only: phases are then recorded
	// as spans under round (phase is the one running), and the round's
	// handles are kept for the per-layer measurements that follow it.
	spans        *spanLog
	round, phase int
	kept         struct {
		parFactor, serialFactor *sparselu.Factorization
	}
}

func serialOptions() *sparselu.Options {
	o := sparselu.DefaultOptions()
	o.Workers, o.SolveWorkers, o.AnalyzeWorkers = 1, 1, 1
	return o
}

func parallelOptions(p int) *sparselu.Options {
	o := sparselu.DefaultOptions()
	o.Workers, o.AnalyzeWorkers = p, p // SolveWorkers inherits Workers
	return o
}

// setUp does everything a run needs before it can measure: generate the
// seeded inputs and encode the request bodies, start the service, and
// warm both paths — one factorize and one solve request (which analyze
// round 0's pattern into the symbolic cache, run the tile autotuner and
// fill the kernels' scratch freelists), and the serial analysis the
// library phases share.
func setUp(w *workload, seed int64, smoke bool, rounds, procs int, t *tally) (*env, error) {
	in, err := genInputs(w, seed, smoke, rounds, procs)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, smoke: smoke, procs: procs, in: in, svc: startService(procs)}
	warm := factorizeBody(in.rounds[0].CSC())
	var frep factorizeReply
	if _, err := e.svc.post(0, "/v1/factorize", warm, &frep); !t.op(err) {
		e.svc.close()
		return nil, err
	}
	var srep solveReply
	if _, err := e.svc.post(0, "/v1/solve", solveBody(frep.FID, "b", in.rhsJSON[0], false), &srep); !t.op(err) {
		e.svc.close()
		return nil, err
	}
	t.checkReply(in.rounds[0], [][]float64{srep.X}, in.rhs[:1], []float64{srep.Residual})
	e.serial, err = sparselu.Analyze(in.rounds[0], serialOptions())
	if !t.op(err) {
		e.svc.close()
		return nil, err
	}
	return e, nil
}

// roundSamples holds the samples of every timed phase, over the rounds.
type roundSamples struct {
	tts, analyze, factorPar []float64
	factor, solve           []float64
	residentMB, calib       []float64
	rounds                  int
	// Of the request script: requests per second, one sample per slice,
	// and the latencies of all requests of all slices in ms.
	svcRate, svcFactorize, svcSolve []float64

	// Of the traced round only: what no end-to-end metric needs.
	reanalyze, solve16 []float64
	deltas, reanalyses int
}

// timed runs phase f and returns its duration in seconds. In the traced
// round the phase is also a span.
func (e *env) timed(name string, f func()) float64 {
	if e.spans != nil {
		return e.spans.in(name, e.round, func(id int) { e.phase = id; f() })
	}
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// collect runs before every phase, outside its timed region, so that the
// garbage of one phase is not collected on the next one's clock.
func collect() { runtime.GC() }

// calibrate is a fixed scalar loop, timed once per round: it does not
// touch the program under test, so when it moves, the machine moved.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start).Seconds()
}

var calibSink uint64

func heapMB() float64 {
	collect()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runRound runs every phase once. Interleaving the phases round by
// round, and taking each metric's median over rounds, makes a slow spell
// of the host hit all metrics alike and not one of them in full.
func (e *env) runRound(r int, s *roundSamples, t *tally) {
	w, in := e.w, e.in
	m := in.rounds[r]
	s.calib = append(s.calib, calibrate())

	// Time to solution, cold and parallel: Analyze + Factorize + Solve.
	// Its parts are core.analyze_s and core.factor_par_s — no duplicate
	// work.
	var an *sparselu.Analysis
	var f *sparselu.Factorization
	var x []float64
	var err error
	b := in.rhs[r%len(in.rhs)]
	var tAnalyze, tFactor time.Duration
	collect()
	total := e.timed("time_to_solution", func() {
		start := time.Now()
		if an, err = sparselu.Analyze(m, parallelOptions(e.procs)); err != nil {
			return
		}
		tAnalyze = time.Since(start)
		if f, err = an.Factorize(m); err != nil {
			return
		}
		tFactor = time.Since(start) - tAnalyze
		x, err = f.Solve(b)
	})
	t.solved(m, x, b, err)
	if err == nil {
		s.tts = append(s.tts, total)
		s.analyze = append(s.analyze, tAnalyze.Seconds())
		s.factorPar = append(s.factorPar, tFactor.Seconds())
	}
	if e.spans != nil {
		e.kept.parFactor = f
	} else if err == nil {
		// Resident size of exactly one Analysis + one Factorization:
		// live heap with them minus live heap without.
		with := heapMB()
		an, f, x = nil, nil, nil
		s.residentMB = append(s.residentMB, with-heapMB())
	}

	// The serial analysis of this round's pattern.
	serial := e.serial
	if w.fresh && r > 0 {
		if serial, err = sparselu.Analyze(m, serialOptions()); !t.op(err) {
			return
		}
	}

	// Plain single-threaded factorization with this round's values.
	var f1 *sparselu.Factorization
	collect()
	d := e.timed("factor", func() { f1, err = serial.Factorize(m) })
	if !t.op(err) {
		return
	}
	s.factor = append(s.factor, d)

	// One solve is a few milliseconds — too short to time alone on a
	// shared host — so back-to-back batches of solveBatch calls (some
	// 40 ms and more) are timed and divided.
	collect()
	for k := 0; k < solveBatches*w.solveReps; k++ {
		xs := make([][]float64, solveBatch)
		errs := make([]error, solveBatch)
		rhs := func(i int) []float64 { return in.rhs[(k*solveBatch+i)%len(in.rhs)] }
		d := e.timed("solve", func() {
			for i := range xs {
				xs[i], errs[i] = f1.Solve(rhs(i))
			}
		})
		for i := range xs {
			t.solved(m, xs[i], rhs(i), errs[i])
		}
		s.solve = append(s.solve, d/solveBatch)
	}
	if e.spans != nil {
		e.kept.serialFactor = f1
		e.reanalyzeEdits(serial, s, t)
		e.solveMany(m, f1, s, t)
	}

	// This round's share of the request script.
	var sl sliceResult
	collect()
	e.timed("service", func() { sl = e.runSlice(r, t) })
	if sl.elapsed > 0 {
		s.svcRate = append(s.svcRate, float64(sl.requests)/sl.elapsed.Seconds())
	}
	s.svcFactorize = append(s.svcFactorize, sl.factorize...)
	s.svcSolve = append(s.svcSolve, sl.solve...)
	s.rounds++
}

// reanalyzeEdits times Reanalyze after small local pattern edits, at a
// few places of round 0's matrix, which serial analyzed.
func (e *env) reanalyzeEdits(serial *sparselu.Analysis, s *roundSamples, t *tally) {
	collect()
	for _, em := range e.in.edited {
		var level sparselu.ReuseLevel
		var edited *sparselu.Analysis
		var err error
		d := e.timed("reanalyze", func() { edited, level, err = serial.Reanalyze(em) })
		if !t.op(err) {
			continue
		}
		t.count(edited.Stats().NNZ == em.NNZ())
		s.reanalyze = append(s.reanalyze, d)
		s.reanalyses++
		if level == sparselu.ReuseDelta {
			s.deltas++
		}
	}
}

// solveMany times SolveMany on the whole pool of right-hand sides, in
// back-to-back batches as the single solves are.
func (e *env) solveMany(m *sparselu.Matrix, f *sparselu.Factorization, s *roundSamples, t *tally) {
	rhs := e.in.rhs
	collect()
	for k := 0; k < manyBatches; k++ {
		panels := make([][][]float64, manyBatch)
		errs := make([]error, manyBatch)
		d := e.timed("solve16", func() {
			for i := range panels {
				panels[i], errs[i] = f.SolveMany(rhs)
			}
		})
		for i := range panels {
			if !t.op(errs[i]) {
				continue
			}
			ok := len(panels[i]) == len(rhs)
			for c := 0; ok && c < len(rhs); c++ {
				ok = solves(m, panels[i][c], rhs[c])
			}
			t.count(ok)
		}
		s.solve16 = append(s.solve16, d/manyBatch)
	}
}

// measure runs rounds until the budget is spent: at least minRounds,
// at most the rounds inputs were generated for, and no round is started
// that would, at the pace of the slowest so far, end after the budget.
func (e *env) measure(budget time.Duration, minRounds int, t *tally) *roundSamples {
	s := &roundSamples{}
	start := time.Now()
	var slowest time.Duration
	for r := 0; r < len(e.in.rounds); r++ {
		if r >= minRounds && time.Since(start)+slowest > budget {
			break
		}
		rs := time.Now()
		e.runRound(r, s, t)
		if d := time.Since(rs); d > slowest {
			slowest = d
		}
	}
	return s
}

// endToEndMetrics reduces the rounds to the end-to-end metrics.
func endToEndMetrics(setupS float64, s *roundSamples) *metricSet {
	ms := newMetricSet(endToEnd)
	ms.set("setup_s", setupS)
	ms.set("time_to_solution_s", median(s.tts))
	ms.set("factor_s", median(s.factor))
	ms.set("resident_mb", median(s.residentMB))
	ms.set("svc_rps", median(s.svcRate))
	return ms
}
