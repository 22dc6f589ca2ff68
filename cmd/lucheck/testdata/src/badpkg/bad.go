// Package badpkg deliberately violates every lucheck rule; it is loaded
// by the lucheck tests under a virtual import path and must never build
// as part of the module proper (it lives under testdata, which the
// loader skips).
package badpkg

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/taskgraph"
)

// MutatePattern writes the protected storage fields of a CSC matrix
// from outside a constructor package: two pattern-mutation findings.
func MutatePattern(a *sparse.CSC) {
	a.ColPtr[0] = 7 // want pattern-mutation
	a.RowInd[1]++   // want pattern-mutation
}

// MutateAllowed carries a suppression comment and must not be
// reported; MutateValues writes the numeric values, which the rule
// deliberately leaves writable.
func MutateAllowed(a *sparse.CSC) {
	//lucheck:allow pattern-mutation — test fixture for the waiver path
	a.ColPtr[1] = 3
	a.Val[0] = 1
}

// NakedPanic panics without the package prefix: one naked-panic finding.
func NakedPanic() {
	panic("something broke") // want naked-panic
}

// PrefixedPanic is the sanctioned form and must not be reported.
func PrefixedPanic() {
	panic(fmt.Sprintf("badpkg: impossible state %d", 3))
}

// FloatEq compares two non-constant floats: one float-equality finding.
// The constant comparison below it is legal.
func FloatEq(x, y float64) bool {
	if x == y { // want float-equality
		return true
	}
	return x == 0
}

// TimedWorker reads the wall clock inside a worker goroutine: one
// worker-timing finding. The reads outside the goroutine are legal.
func TimedWorker() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = time.Now() // want worker-timing
	}()
	wg.Wait()
	return time.Since(start)
}

// HotAlloc allocates in the numeric hot path. With the fixture scoped
// as a hot-path package, the top-level make and both goroutine-body
// allocations are findings; scoped only as a workers package, just the
// two inside the goroutine fire (see TestHotAllocWorkerScope). The
// suppressed make demonstrates the waiver path.
func HotAlloc(n int) float64 {
	buf := make([]float64, n) // want hot-alloc
	//lucheck:allow hot-alloc — setup-time scratch outside the measured phase
	setup := make([]float64, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		local := make([]float64, 0, 4) // want hot-alloc
		local = append(local, 1)       // want hot-alloc
		_ = local
	}()
	wg.Wait()
	return buf[0] + setup[0]
}

// SchedWorkerAlloc allocates inside a closure handed to a sched
// executor: scoped as a sched-client package, the make inside the
// worker body fires even though no `go` statement appears here (the
// executor launches the goroutines). Scoped only as a workers package
// it stays silent (see TestHotAllocSchedClosureScope); scoped as a
// hot-path package the whole-file scan reports it like any other.
func SchedWorkerAlloc(g *taskgraph.Graph, results []float64) error {
	return sched.Run(g, sched.RunOptions{Procs: 2}, func(task int) error {
		scratch := make([]float64, task+1) // want hot-alloc
		results[task] = float64(len(scratch))
		return nil
	})
}

// spinQueue is a stand-in work queue so the spin-loop fixtures below
// have a claim primitive to poll.
type spinQueue struct{ ids []int }

func (q *spinQueue) steal() int {
	if len(q.ids) == 0 {
		return -1
	}
	id := q.ids[0]
	q.ids = q.ids[1:]
	return id
}

// SpinningWaiter busy-waits on an atomic flag with no backoff: one
// spin-loop finding. The yielding loop below it is legal.
func SpinningWaiter(ready *atomic.Bool) {
	for !ready.Load() { // want spin-loop
	}
	for !ready.Load() {
		runtime.Gosched()
	}
}

// SpinningThief polls a claim primitive in an unbounded tight loop: one
// spin-loop finding. ParkingThief parks between failed polls and the
// bounded sweep in BoundedSweep terminates on its own; both are legal.
func SpinningThief(q *spinQueue) int {
	for { // want spin-loop
		if id := q.steal(); id >= 0 {
			return id
		}
	}
}

// ParkingThief is the sanctioned shape: park on a condition variable
// when a poll comes up empty.
func ParkingThief(q *spinQueue, cond *sync.Cond) int {
	for {
		if id := q.steal(); id >= 0 {
			return id
		}
		cond.L.Lock()
		cond.Wait()
		cond.L.Unlock()
	}
}

// BoundedSweep is a bounded retry loop (init and post clauses bound the
// trip count), which the rule deliberately skips.
func BoundedSweep(q *spinQueue) int {
	for round := 0; round < 4; round++ {
		if id := q.steal(); id >= 0 {
			return id
		}
	}
	return -1
}

// ExitingWorker terminates the process from worker goroutines instead
// of failing through the scheduler's error contract: two worker-exit
// findings. The os.Exit outside any goroutine is out of the rule's
// scope (main packages exit; worker closures must not).
func ExitingWorker(fail bool) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if fail {
			os.Exit(1) // want worker-exit
		}
	}()
	go func() {
		defer wg.Done()
		if fail {
			log.Fatalf("task failed") // want worker-exit
		}
	}()
	wg.Wait()
	if fail {
		os.Exit(2)
	}
}
