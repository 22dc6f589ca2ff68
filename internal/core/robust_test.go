package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/luerr"
	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// robustOptions returns the configuration the robustness tests share:
// enough workers to expose scheduling races under -race.
func robustOptions(workers int) *Options {
	o := DefaultOptions()
	o.Workers = workers
	return o
}

func TestNearSingularFailPolicy(t *testing.T) {
	a, zeroCol, _ := matgen.NearSingular(8, 10, 21)
	opts := robustOptions(4)
	f, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Singular() {
		t.Fatal("zero column not flagged singular under PivotFail")
	}
	if got := f.SingularColumn(); got != zeroCol {
		t.Fatalf("SingularColumn = %d, want %d", got, zeroCol)
	}
	b := make([]float64, a.NCols)
	for i := range b {
		b[i] = 1
	}
	_, err = f.Solve(b)
	if !errors.Is(err, ErrNumericallySingular) {
		t.Fatalf("Solve err = %v, want ErrNumericallySingular", err)
	}
	var se *SingularError
	if !errors.As(err, &se) || se.Col != zeroCol {
		t.Fatalf("Solve err = %v, want *SingularError at column %d", err, zeroCol)
	}
	if f.PivotPerturbations() != 0 || f.PerturbedColumns() != nil {
		t.Fatal("PivotFail recorded perturbations")
	}
}

func TestNearSingularPerturbPolicy(t *testing.T) {
	a, zeroCol, tinyCols := matgen.NearSingular(8, 10, 21)
	n := a.NCols
	opts := robustOptions(4)
	opts.PivotPolicy = PivotPerturb
	f, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.Singular() {
		t.Fatal("PivotPerturb left the singular flag set")
	}
	if f.PivotThreshold() <= 0 {
		t.Fatalf("PivotThreshold = %g", f.PivotThreshold())
	}
	pcols := f.PerturbedColumns()
	if len(pcols) != f.PivotPerturbations() {
		t.Fatalf("count %d vs columns %v", f.PivotPerturbations(), pcols)
	}
	has := func(want int) bool {
		for _, c := range pcols {
			if c == want {
				return true
			}
		}
		return false
	}
	if !has(zeroCol) {
		t.Fatalf("perturbed columns %v miss the zero column %d", pcols, zeroCol)
	}
	for _, c := range tinyCols {
		if !has(c) {
			t.Fatalf("perturbed columns %v miss tiny column %d", pcols, c)
		}
	}
	// Consistent right-hand side: refinement must recover a small
	// backward error despite the perturbed pivots.
	rng := rand.New(rand.NewSource(5))
	xtrue := make([]float64, n)
	for i := range xtrue {
		xtrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(xtrue, b)
	x, berr, _, err := f.SolveRefined(a, b, 3, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if berr > 1e-10 {
		t.Fatalf("backward error %g after refinement, want ≤ 1e-10", berr)
	}
	if i := firstNonFinite(x); i >= 0 {
		t.Fatalf("solution has non-finite entry at %d", i)
	}
	// The stability reports stay finite and available.
	if pg := f.PivotGrowth(a); math.IsNaN(pg) || math.IsInf(pg, 0) {
		t.Fatalf("PivotGrowth = %g", pg)
	}
	if _, err := f.CondEstimate1(a); err != nil {
		t.Fatalf("CondEstimate1: %v", err)
	}
}

func TestPerturbNoOpOnHealthyMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomSystem(80, 0.08, rng)
	fail, err := Factorize(a, robustOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	opts := robustOptions(3)
	opts.PivotPolicy = PivotPerturb
	pert, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pert.PivotPerturbations() != 0 {
		t.Fatalf("healthy matrix got %d perturbations at %v",
			pert.PivotPerturbations(), pert.PerturbedColumns())
	}
	for k := range fail.cols {
		fa, pa := fail.cols[k].data, pert.cols[k].data
		for i := range fa {
			if fa[i] != pa[i] {
				t.Fatalf("policies diverge bitwise at column %d entry %d", k, i)
			}
		}
	}
}

// TestPanicInUpdateTaskAborts pins the acceptance criterion at the core
// layer: a fault-injected panic in an Update task at P=8 surfaces as a
// *sched.TaskError naming that task.
func TestPanicInUpdateTaskAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := randomSystem(120, 0.05, rng)
	opts := robustOptions(8)
	s, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	updateID := -1
	for id, task := range s.Graph.Tasks {
		if task.Kind == taskgraph.Update {
			updateID = id
			break
		}
	}
	if updateID < 0 {
		t.Skip("graph has no update tasks")
	}
	f, err := newFactorization(s, a, resolveNumOpts(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New()
	inj.Set(updateID, faultinject.Fault{Mode: faultinject.Panic})
	prio, err := s.Graph.BottomLevels(s.Costs.TaskFlops)
	if err != nil {
		t.Fatal(err)
	}
	err = sched.Run(s.Graph, sched.RunOptions{Procs: 8, Owners: sched.BlockCyclic(s.BlockSym.N, 8), Prio: prio}, inj.Wrap(f.runTask, nil))
	var te *sched.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *sched.TaskError", err)
	}
	if te.ID != updateID {
		t.Fatalf("TaskError names task %d, want %d", te.ID, updateID)
	}
	if want := s.Graph.Tasks[updateID].String(); te.Task != want {
		t.Fatalf("TaskError task = %q, want %q", te.Task, want)
	}
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d times", inj.Fired())
	}
}

// TestPoisonNaNTripsGuard injects NaN into a block column after one of
// its updates and checks the core non-finite guard aborts the execution
// with ErrNonFinite.
func TestPoisonNaNTripsGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	a := randomSystem(120, 0.05, rng)
	opts := robustOptions(8)
	s, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFactorization(s, a, resolveNumOpts(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	poisonID := -1
	var destCol int
	for id, task := range s.Graph.Tasks {
		if task.Kind == taskgraph.Update {
			poisonID, destCol = id, task.J
			break
		}
	}
	if poisonID < 0 {
		t.Skip("graph has no update tasks")
	}
	inj := faultinject.New()
	inj.Set(poisonID, faultinject.Fault{Mode: faultinject.PoisonNaN})
	poison := func(id int) {
		data := f.cols[destCol].data
		for i := range data {
			data[i] = math.NaN()
		}
	}
	prio, err := s.Graph.BottomLevels(s.Costs.TaskFlops)
	if err != nil {
		t.Fatal(err)
	}
	err = sched.Run(s.Graph, sched.RunOptions{Procs: 8, Prio: prio}, inj.Wrap(f.runTask, poison))
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	var te *sched.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *sched.TaskError", err)
	}
}

// TestInjectorTransparencyBitwise: with an empty fault plan the wrapped
// runner must reproduce the factors bit for bit, at any worker count.
func TestInjectorTransparencyBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	a := randomSystem(100, 0.06, rng)
	opts := robustOptions(1)
	ref, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Analyze(a, robustOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFactorization(s, a, resolveNumOpts(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New()
	prio, err := s.Graph.BottomLevels(s.Costs.TaskFlops)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(s.Graph, sched.RunOptions{Procs: 8, Prio: prio}, inj.Wrap(f.runTask, nil)); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() != 0 {
		t.Fatalf("empty injector fired %d times", inj.Fired())
	}
	for k := range ref.cols {
		ra, fa := ref.cols[k].data, f.cols[k].data
		for i := range ra {
			if ra[i] != fa[i] {
				t.Fatalf("column %d entry %d differs bitwise", k, i)
			}
		}
	}
}

// TestTimeoutCancelsFactorization: with every task delayed far past the
// deadline, the numeric phase must return a CancelError caused by
// ErrDeadlineExceeded.
func TestTimeoutCancelsFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	a := randomSystem(90, 0.05, rng)
	opts := robustOptions(8)
	opts.Timeout = time.Millisecond
	s, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph.NumTasks() <= 8 {
		t.Skip("graph too small to outlive the deadline")
	}
	f, err := newFactorization(s, a, resolveNumOpts(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New()
	for id := 0; id < s.Graph.NumTasks(); id++ {
		inj.Set(id, faultinject.Fault{Mode: faultinject.Delay, Sleep: 100 * time.Millisecond})
	}
	prio, err := s.Graph.BottomLevels(s.Costs.TaskFlops)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := phaseContext(s.Opts.Context, s.Opts.Timeout)
	defer stop()
	err = sched.Run(s.Graph, sched.RunOptions{Procs: 8, Prio: prio, Context: ctx}, inj.Wrap(f.runTask, nil))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, sched.ErrCanceled) {
		t.Fatalf("err = %v does not match sched.ErrCanceled", err)
	}
	var ce *sched.CancelError
	if !errors.As(err, &ce) || ce.Completed >= ce.Total {
		t.Fatalf("cancel progress %+v implausible", ce)
	}
}

// TestCancelOptionWiredThroughFactorize: an Options.Context cancelled
// with a cause before the call makes the public factorization entry
// points return promptly with that cause.
func TestCancelOptionWiredThroughFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := randomSystem(60, 0.08, rng)
	cause := errors.New("caller gave up")
	opts := robustOptions(4)
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	opts.Context = ctx
	if _, err := Factorize(a, opts); !errors.Is(err, cause) || !errors.Is(err, sched.ErrCanceled) {
		t.Fatalf("Factorize err = %v", err)
	}
	s, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FactorizeWithOpts(s, a, &NumericOptions{Workers: 4, Context: ctx}); !errors.Is(err, cause) || !errors.Is(err, sched.ErrCanceled) {
		t.Fatalf("FactorizeWithOpts err = %v", err)
	}
}

// TestSolveCancelPreTripped pins the cancel path of the solves: under
// an already-cancelled context — the factorization's own (the only one
// SolveTranspose sees) or a per-call override — SolveWith, SolveManyWith
// and SolveTranspose fail with the luerr class of its cause, and the
// next uncanceled solve, which checks out the workspace a canceled one
// returned to the pool, is bitwise the reference.
func TestSolveCancelPreTripped(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	a := randomSystem(60, 0.08, rng)
	s, err := Analyze(a, robustOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	bs := make([][]float64, 3)
	for r := range bs {
		bs[r] = make([]float64, a.NCols)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	for _, tc := range []struct {
		cause, class error
	}{
		{sched.ErrCanceled, luerr.ErrCanceled},
		{ErrDeadlineExceeded, luerr.ErrDeadline},
	} {
		ctx, cancel := context.WithCancelCause(context.Background())
		f, err := FactorizeWithOpts(s, a, &NumericOptions{Workers: 2, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.Solve(bs[0])
		if err != nil {
			t.Fatal(err)
		}
		wantMany, err := f.SolveMany(bs)
		if err != nil {
			t.Fatal(err)
		}
		cancel(tc.cause)
		if _, err := f.Solve(bs[0]); !errors.Is(err, tc.class) {
			t.Errorf("Solve under Cancel(%v): err = %v, want %v", tc.cause, err, tc.class)
		}
		if _, err := f.SolveTranspose(bs[0]); !errors.Is(err, tc.class) {
			t.Errorf("SolveTranspose under Cancel(%v): err = %v, want %v", tc.cause, err, tc.class)
		}
		opts := &NumericOptions{Context: ctx}
		if _, err := f.SolveWith(bs[0], opts); !errors.Is(err, tc.class) {
			t.Errorf("SolveWith under Cancel(%v): err = %v, want %v", tc.cause, err, tc.class)
		}
		if _, err := f.SolveManyWith(bs, opts); !errors.Is(err, tc.class) {
			t.Errorf("SolveManyWith under Cancel(%v): err = %v, want %v", tc.cause, err, tc.class)
		}
		x, err := f.SolveWith(bs[0], &NumericOptions{})
		if err != nil {
			t.Fatal(err)
		}
		diffBits(t, "SolveWith after a canceled solve", x, want)
		xs, err := f.SolveManyWith(bs, &NumericOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for r := range xs {
			diffBits(t, "SolveManyWith after a canceled solve", xs[r], wantMany[r])
		}
	}
}

// TestSharedContextSurvivesFailedPhase shares one parent context
// between a failing phase and a second factorization. The failure — a
// NaN input value failing its Factor task, or a Timeout expiring under
// injected delays — stops only its own phase: the parent context stays
// live, and the second FactorizeWithOpts under it is bitwise a fresh
// factorization.
func TestSharedContextSurvivesFailedPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	a := randomSystem(90, 0.05, rng)
	s, err := Analyze(a, robustOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := FactorizeWithOpts(s, a, &NumericOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := factorHash(fresh)

	for _, tc := range []struct {
		name string
		fail func(ctx context.Context) error
		is   error
	}{
		{"nan input", func(ctx context.Context) error {
			bad := *a
			bad.Val = append([]float64(nil), a.Val...)
			bad.Val[0] = math.NaN()
			_, err := FactorizeWithOpts(s, &bad, &NumericOptions{Workers: 4, Context: ctx})
			return err
		}, ErrNonFinite},
		{"timeout", func(ctx context.Context) error {
			f, err := newFactorization(s, a, resolveNumOpts(s, nil))
			if err != nil {
				return err
			}
			inj := faultinject.New()
			for id := 0; id < s.Graph.NumTasks(); id++ {
				inj.Set(id, faultinject.Fault{Mode: faultinject.Delay, Sleep: 20 * time.Millisecond})
			}
			phase, stop := phaseContext(ctx, time.Millisecond)
			defer stop()
			return sched.Run(s.Graph, sched.RunOptions{Procs: 4, Prio: s.Prio, Context: phase}, inj.Wrap(f.runTask, nil))
		}, ErrDeadlineExceeded},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		if err := tc.fail(ctx); !errors.Is(err, tc.is) {
			t.Fatalf("%s: failing phase err = %v, want %v", tc.name, err, tc.is)
		}
		if ctx.Err() != nil {
			t.Fatalf("%s: the failed phase cancelled the shared context: %v", tc.name, context.Cause(ctx))
		}
		f, err := FactorizeWithOpts(s, a, &NumericOptions{Workers: 4, Context: ctx})
		if err != nil {
			t.Fatalf("%s: second factorization under the shared context: %v", tc.name, err)
		}
		if got := factorHash(f); got != want {
			t.Fatalf("%s: second factorization hashes %s, a fresh one %s", tc.name, got, want)
		}
		cancel()
	}
}

// TestSeededFaultSweep runs a deterministic sweep of seeded error
// injections and checks every failure honors the TaskError contract.
func TestSeededFaultSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := randomSystem(100, 0.05, rng)
	opts := robustOptions(8)
	s, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	prio, err := s.Graph.BottomLevels(s.Costs.TaskFlops)
	if err != nil {
		t.Fatal(err)
	}
	nt := s.Graph.NumTasks()
	for seed := int64(1); seed <= 4; seed++ {
		ids := faultinject.PickTasks(seed, nt, 3)
		inj := faultinject.New()
		for i, id := range ids {
			mode := faultinject.Error
			if i%2 == 1 {
				mode = faultinject.Panic
			}
			inj.Set(id, faultinject.Fault{Mode: mode})
		}
		f, err := newFactorization(s, a, resolveNumOpts(s, nil))
		if err != nil {
			t.Fatal(err)
		}
		err = sched.Run(s.Graph, sched.RunOptions{Procs: 8, Prio: prio}, inj.Wrap(f.runTask, nil))
		var te *sched.TaskError
		if !errors.As(err, &te) {
			t.Fatalf("seed %d: err = %v, want *sched.TaskError", seed, err)
		}
		planned := false
		for _, id := range ids {
			if te.ID == id {
				planned = true
			}
		}
		if !planned {
			t.Fatalf("seed %d: failing task %d not in the fault plan %v", seed, te.ID, ids)
		}
		if inj.Fired() == 0 {
			t.Fatalf("seed %d: no fault fired", seed)
		}
	}
}
