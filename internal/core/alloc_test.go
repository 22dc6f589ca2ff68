package core

import (
	"runtime"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// allocBudget is the fixed engine overhead allowed per execution:
// worker goroutines, the preallocated deques, the context hook and
// the run closure. It is deliberately far below one allocation per
// task, so any per-task allocation sneaking back into the numeric hot
// path (panel buffers, packing scratch, heap boxing) fails the test.
const allocBudget = 64

// measureExecAllocs runs one numeric phase on a fresh factorization
// and returns the heap objects allocated during the execution itself.
func measureExecAllocs(t *testing.T, s *Symbolic, a *sparse.CSC, procs int) (allocs uint64, tasks int) {
	t.Helper()
	f, err := newFactorization(s, a, resolveNumOpts(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	run := f.runTask

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = sched.Run(s.Graph, sched.RunOptions{Procs: procs, Prio: s.Prio}, run)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, s.Graph.NumTasks()
}

// TestNumericPhaseZeroAllocs is the zero-allocation proof of the
// packed kernels: after one warm-up factorization (which fills the
// blas packing-scratch pool), the parallel numeric phase — every
// Factor and Update task at P=4 — allocates nothing per task. Only the engine's
// fixed setup (well under allocBudget objects for hundreds of tasks)
// is tolerated.
func TestNumericPhaseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	const procs = 4
	a := matgen.Sherman5()
	opts := DefaultOptions()
	opts.Workers = procs
	s, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: populates the packing-scratch pool and the runtime's
	// internal caches.
	if _, err := FactorizeWith(s, a); err != nil {
		t.Fatal(err)
	}
	allocs, tasks := measureExecAllocs(t, s, a, procs)
	if tasks < 100 {
		t.Fatalf("only %d tasks; matrix too small for the test to mean anything", tasks)
	}
	t.Logf("%d allocs across %d tasks (%.4f/task)", allocs, tasks, float64(allocs)/float64(tasks))
	if allocs > allocBudget {
		t.Errorf("numeric phase allocated %d objects over %d tasks, budget %d — the hot path is allocating per task",
			allocs, tasks, allocBudget)
	}
}

// TestHugeWorkerCountIsCapped pins that the worker count is capped at
// the task count before it sizes anything: 1<<16 workers on sherman3-s
// factor to the P = 1 values bit for bit, and the factorization's heap
// allocation stays far below what one whole-graph deque per requested
// worker would take.
func TestHugeWorkerCountIsCapped(t *testing.T) {
	sp := matgen.SmallSuite()[0]
	if sp.Name != "sherman3-s" {
		t.Fatalf("small suite starts with %s, want sherman3-s", sp.Name)
	}
	a := sp.Gen()
	s, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f1, err := FactorizeWithOpts(s, a, &NumericOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := FactorizeWithOpts(s, a, &NumericOptions{Workers: 1 << 16})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := factorHash(f), factorHash(f1); got != want {
		t.Fatalf("1<<16 workers: factor hash %s, P = 1 %s", got, want)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 16 {
		t.Fatalf("1<<16 workers allocated %.1f MB over %d tasks, want < 16 MB", mb, s.Graph.NumTasks())
	}
}
