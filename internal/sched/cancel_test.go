package sched

import (
	"errors"
	"strings"
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

func TestCancelerOneShot(t *testing.T) {
	var c Canceler
	if c.Canceled() {
		t.Fatal("zero canceler already tripped")
	}
	if c.Cause() != nil {
		t.Fatalf("cause before trip: %v", c.Cause())
	}
	first := errors.New("first")
	c.Cancel(first)
	c.Cancel(errors.New("second"))
	if !c.Canceled() {
		t.Fatal("not tripped after Cancel")
	}
	if c.Cause() != first {
		t.Fatalf("cause = %v, want the first cancel to win", c.Cause())
	}

	var d Canceler
	d.Cancel(nil)
	if d.Cause() != ErrCanceled {
		t.Fatalf("nil cause = %v, want ErrCanceled", d.Cause())
	}
}

func TestCancelerSubscribe(t *testing.T) {
	// Subscribing after the trip fires immediately.
	var c Canceler
	c.Cancel(nil)
	fired := false
	c.subscribe(func() { fired = true })()
	if !fired {
		t.Fatal("late subscriber did not fire")
	}

	// Subscribers fire on Cancel; deregistered ones do not.
	var e Canceler
	n := 0
	e.subscribe(func() { n++ })
	unsub := e.subscribe(func() { n += 10 })
	unsub()
	e.Cancel(nil)
	if n != 1 {
		t.Fatalf("subscriber count effect = %d, want 1", n)
	}
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

// TestCancellationLatencyExact pins the acceptance criterion: with P=8
// workers and a failing Update task, exactly P tasks ever start — the
// one that fails plus the P−1 already claimed — and no worker claims a
// new task after the failure is published. The schedule is made
// deterministic by blocking the first P−1 bystander tasks until the
// failing task has seen them all arrive, and releasing them via the
// canceler's own trip notification (which happens strictly after the
// executor records the failure).
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
	cancel := &Canceler{}
	defer cancel.subscribe(func() { close(release) })()
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
	err := Run(g, RunOptions{Procs: procs, Prio: prio, Cancel: cancel}, run)
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
	if !cancel.Canceled() || !errors.Is(cancel.Cause(), boom) {
		t.Fatalf("task failure did not trip the shared canceler: %v", cancel.Cause())
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
	cancel := &Canceler{}
	defer cancel.subscribe(func() { close(release) })()
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
	err := Run(g, RunOptions{Procs: procs, Prio: prio, Cancel: cancel}, run)
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
// from the outside and checks the CancelError contract.
func TestExternalCancelStopsExecution(t *testing.T) {
	const total = 100
	const procs = 4
	g := syntheticUpdates(total)
	cancel := &Canceler{}
	arrived := make(chan struct{}, total)
	gate := make(chan struct{})
	var started atomic.Int64
	run := func(id int) error {
		started.Add(1)
		arrived <- struct{}{}
		<-gate
		return nil
	}
	done := make(chan error, 1)
	go func() {
		done <- Run(g, RunOptions{Procs: procs, Owners: BlockCyclic(g.N, procs), Cancel: cancel}, run)
	}()
	for i := 0; i < procs; i++ {
		<-arrived
	}
	cancel.Cancel(nil)
	close(gate)
	err := <-done
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatal("cancel error does not match ErrCanceled")
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

// TestCancelBeforeStart: an already-tripped canceler yields an
// immediate CancelError with zero progress.
func TestCancelBeforeStart(t *testing.T) {
	g := syntheticUpdates(10)
	cancel := &Canceler{}
	cause := errors.New("gave up early")
	cancel.Cancel(cause)
	ran := false
	err := Run(g, RunOptions{Procs: 2, Cancel: cancel}, func(id int) error {
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
		t.Fatal("a task ran despite pre-tripped canceler")
	}
}
