package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// syntheticUpdates returns a dependence-free graph of n Update tasks
// U(0, i+1), so failure reports carry the paper's task notation without
// needing a real matrix.
func syntheticUpdates(n int) *taskgraph.Graph {
	g := &taskgraph.Graph{N: n + 1, Tasks: make([]taskgraph.Task, n), Succ: make([][]int32, n)}
	for i := range g.Tasks {
		g.Tasks[i] = taskgraph.Task{Kind: taskgraph.Update, K: 0, J: i + 1}
	}
	return g
}

func TestCancelErrorMatching(t *testing.T) {
	cause := errors.New("cause")
	err := error(&CancelError{Cause: cause, Completed: 3, Total: 10})
	if !errors.Is(err, ErrCanceled) {
		t.Fatal("CancelError does not match ErrCanceled")
	}
	if !errors.Is(err, cause) {
		t.Fatal("CancelError does not unwrap to its cause")
	}
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Completed != 3 || ce.Total != 10 {
		t.Fatalf("errors.As: %+v", ce)
	}
	if s := err.Error(); !strings.Contains(s, "3 of 10") {
		t.Fatalf("message %q lacks progress", s)
	}
}

// releaseOnStop closes release once the engine has published a reason
// to stop, and uninstalls the hook when the test ends.
func releaseOnStop(t *testing.T, release chan struct{}) {
	var once sync.Once
	stopPublished = func() { once.Do(func() { close(release) }) }
	t.Cleanup(func() { stopPublished = nil })
}

// TestCancellationLatencyExact pins the acceptance criterion: with P=8
// workers and a failing Update task, exactly P tasks ever start — the
// one that fails plus the P−1 already claimed — and no worker claims a
// new task after the failure is published. The schedule is made
// deterministic by blocking the first P−1 bystander tasks until the
// failing task has seen them all arrive, and releasing them from the
// engine's stop hook (which runs strictly after the failure is
// published). The failure stops this execution only: the caller's
// context stays live.
func TestCancellationLatencyExact(t *testing.T) {
	const total = 1000
	const procs = 8
	g := syntheticUpdates(total)
	prio := make([]float64, total)
	prio[0] = 2
	for i := 1; i < procs; i++ {
		prio[i] = 1
	}
	boom := errors.New("boom")
	arrived := make(chan int, procs)
	release := make(chan struct{})
	releaseOnStop(t, release)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	run := func(id int) error {
		started.Add(1)
		if id == 0 {
			for i := 0; i < procs-1; i++ {
				<-arrived
			}
			return boom
		}
		arrived <- id
		<-release
		return nil
	}
	err := Run(g, RunOptions{Procs: procs, Prio: prio, Context: ctx}, run)
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TaskError", err)
	}
	if te.ID != 0 || te.Task != "U(0,1)" {
		t.Fatalf("TaskError names %d %q, want 0 U(0,1)", te.ID, te.Task)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err %v does not unwrap to the task failure", err)
	}
	if n := started.Load(); n != procs {
		t.Fatalf("%d tasks started, want exactly %d (no claims after the failure)", n, procs)
	}
	if ctx.Err() != nil {
		t.Fatalf("task failure cancelled the caller's context: %v", context.Cause(ctx))
	}
}

// TestCancellationLatencyPanic is the same contract with a panicking
// task body instead of a returned error.
func TestCancellationLatencyPanic(t *testing.T) {
	const total = 200
	const procs = 8
	g := syntheticUpdates(total)
	prio := make([]float64, total)
	prio[0] = 2
	for i := 1; i < procs; i++ {
		prio[i] = 1
	}
	arrived := make(chan int, procs)
	release := make(chan struct{})
	releaseOnStop(t, release)
	var started atomic.Int64
	run := func(id int) error {
		started.Add(1)
		if id == 0 {
			for i := 0; i < procs-1; i++ {
				<-arrived
			}
			panic("kernel exploded")
		}
		arrived <- id
		<-release
		return nil
	}
	err := Run(g, RunOptions{Procs: procs, Prio: prio}, run)
	var te *TaskError
	if !errors.As(err, &te) || te.ID != 0 {
		t.Fatalf("err = %v, want *TaskError for task 0", err)
	}
	if !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("panic message lost: %v", err)
	}
	if n := started.Load(); n != procs {
		t.Fatalf("%d tasks started, want exactly %d", n, procs)
	}
}

// TestExternalCancelStopsExecution cancels an owner-mapped execution
// through its context and checks the CancelError contract. The running
// tasks are released from the engine's stop hook, once the cancel is
// published, so no worker may claim another task.
func TestExternalCancelStopsExecution(t *testing.T) {
	const total = 100
	const procs = 4
	g := syntheticUpdates(total)
	ctx, cancel := context.WithCancel(context.Background())
	arrived := make(chan struct{}, total)
	gate := make(chan struct{})
	releaseOnStop(t, gate)
	var started atomic.Int64
	run := func(id int) error {
		started.Add(1)
		arrived <- struct{}{}
		<-gate
		return nil
	}
	done := make(chan error, 1)
	go func() {
		done <- Run(g, RunOptions{Procs: procs, Owners: BlockCyclic(g.N, procs), Context: ctx}, run)
	}()
	for i := 0; i < procs; i++ {
		<-arrived
	}
	cancel()
	err := <-done
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel error %v does not match ErrCanceled and context.Canceled", err)
	}
	if ce.Total != total || ce.Completed >= total {
		t.Fatalf("progress %d/%d implausible", ce.Completed, ce.Total)
	}
	if n := started.Load(); n != procs {
		t.Fatalf("%d tasks started after external cancel, want %d", n, procs)
	}
}

// TestAbortTraceEvent checks that a task failure leaves a KindAbort
// event naming the failing task in the trace.
func TestAbortTraceEvent(t *testing.T) {
	g := syntheticUpdates(4)
	rec := trace.New(2)
	boom := errors.New("boom")
	err := Run(g, RunOptions{Procs: 2, Trace: rec}, func(id int) error {
		if id == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	aborts := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KindAbort {
			aborts++
			if e.Task != 2 {
				t.Fatalf("abort event names task %d, want 2", e.Task)
			}
		}
	}
	if aborts != 1 {
		t.Fatalf("%d abort events, want 1", aborts)
	}
}

// TestCancelBeforeStart: a context cancelled before the start yields an
// immediate CancelError with zero progress, carrying its cause.
func TestCancelBeforeStart(t *testing.T) {
	g := syntheticUpdates(10)
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("gave up early")
	cancel(cause)
	ran := false
	err := Run(g, RunOptions{Procs: 2, Context: ctx}, func(id int) error {
		ran = true
		return nil
	})
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Completed != 0 {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("cause lost: %v", err)
	}
	if ran {
		t.Fatal("a task ran despite a cancelled context")
	}
}
