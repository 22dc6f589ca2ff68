package symbolic_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matgen"
	"repro/internal/ordering"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
)

// orderedSuite yields the small-suite matrices after the same
// fill-reducing ordering core.Analyze applies before its symbolic
// stage — the bushy AᵀA etree that ordering produces is what makes
// subtree partitioning effective (a natural band ordering degenerates
// to a path, where PartitionColumns correctly declines to partition).
func orderedSuite() []matgen.Spec {
	specs := matgen.SmallSuite()
	out := make([]matgen.Spec, len(specs))
	for i, spec := range specs {
		gen := spec.Gen
		out[i] = matgen.Spec{Name: spec.Name, Domain: spec.Domain, Gen: func() *sparse.CSC {
			a := gen()
			return a.PermuteSym(ordering.ColumnOrdering(a, ordering.MinDegreeATA))
		}}
	}
	return out
}

// equalResult compares two symbolic Results entry for entry.
func equalResult(t *testing.T, name string, a, b *symbolic.Result) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("%s: N %d vs %d", name, a.N, b.N)
	}
	cmp := func(what string, p, q *sparse.Pattern) {
		if len(p.ColPtr) != len(q.ColPtr) || len(p.RowInd) != len(q.RowInd) {
			t.Fatalf("%s: %s size mismatch", name, what)
		}
		for i := range p.ColPtr {
			if p.ColPtr[i] != q.ColPtr[i] {
				t.Fatalf("%s: %s ColPtr[%d] = %d vs %d", name, what, i, p.ColPtr[i], q.ColPtr[i])
			}
		}
		for i := range p.RowInd {
			if p.RowInd[i] != q.RowInd[i] {
				t.Fatalf("%s: %s RowInd[%d] = %d vs %d", name, what, i, p.RowInd[i], q.RowInd[i])
			}
		}
	}
	cmp("L", a.L, b.L)
	cmp("URows", a.URows, b.URows)
}

// schedRunner runs the bucket eliminations as independent tasks on w
// workers of the async engine, so they run concurrently under -race.
func schedRunner(w int) symbolic.Runner {
	return func(n int, run func(i int) error) error {
		return sched.Execute(taskgraph.Independent(n), sched.BlockCyclic(n, w), w, nil, run)
	}
}

// TestFactorParallelIdentical pins the bitwise-determinism contract of
// the parallel symbolic factorization: at every worker count the packed
// Result is identical to the serial one, over the whole small suite.
func TestFactorParallelIdentical(t *testing.T) {
	partitioned := 0
	for _, spec := range orderedSuite() {
		a := spec.Gen()
		want, err := symbolic.Factor(a)
		if err != nil {
			t.Fatalf("%s: serial: %v", spec.Name, err)
		}
		if symbolic.PartitionColumns(a, 4) != nil {
			partitioned++
		}
		for _, w := range []int{1, 2, 3, 4, 8} {
			got, err := symbolic.FactorParallel(a, w, schedRunner(w))
			if err != nil {
				t.Fatalf("%s: parallel w=%d: %v", spec.Name, w, err)
			}
			equalResult(t, spec.Name, got, want)
		}
	}
	if partitioned == 0 {
		t.Fatal("no small-suite matrix produced a partition; the parallel path is untested")
	}
}

// TestFactorParallelPanicFault injects a panic into one subtree task
// and checks that it surfaces from FactorParallel as the engine's
// structured *sched.TaskError without leaking goroutines.
func TestFactorParallelPanicFault(t *testing.T) {
	spec := orderedSuite()[0]
	a := spec.Gen()
	if symbolic.PartitionColumns(a, 4) == nil {
		t.Fatalf("%s: no partition", spec.Name)
	}
	inj := faultinject.New()
	inj.Set(1, faultinject.Fault{Mode: faultinject.Panic})
	runner := func(ntasks int, run func(i int) error) error {
		return schedRunner(4)(ntasks, inj.Wrap(run, nil))
	}

	before := runtime.NumGoroutine()
	_, err := symbolic.FactorParallel(a, 4, runner)
	if err == nil {
		t.Fatal("injected panic did not surface as an error")
	}
	var te *sched.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error %T (%v) is not a *sched.TaskError", err, err)
	}
	if te.ID != 1 {
		t.Fatalf("TaskError.ID = %d, want 1", te.ID)
	}
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d times, want 1", inj.Fired())
	}
	// All engine goroutines must have drained.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
