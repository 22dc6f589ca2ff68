// Package sched is the run-time layer standing in for the RAPID system
// the paper used: tasks of a dependence graph are statically mapped to
// processors with a 1-D block-column scheme (an entire block column is
// owned by one processor — Section 4), and executed either
//
//   - for real, by an asynchronous data-flow engine (async.go): atomic
//     per-task dependence counters, per-worker Chase–Lev work-stealing
//     deques and a counter-based termination detector instead of level
//     barriers, with the 1-D ownership (or a global priority order)
//     deciding only the initial placement of ready tasks (Run), or
//   - deterministically, by a model of RAPID itself on the Origin 2000
//     (simulate.go): a list-scheduling inspector and an in-order
//     executor over a flop-rate and message-latency machine, used to
//     regenerate the paper's figures reproducibly.
package sched

import (
	"context"
	"fmt"

	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// TaskError is the failure of one task during an execution. The
// executors return the first such failure observed by any worker, with
// the task's id and paper notation attached so callers can pinpoint the
// offending block column.
type TaskError struct {
	// ID is the task id in the dependence graph.
	ID int
	// Task is the task in the paper's notation, e.g. "U(3,7)".
	Task string
	// Err is the underlying failure (a returned error, or a converted
	// panic).
	Err error
}

// Error formats the failure with the task attached.
func (e *TaskError) Error() string {
	return fmt.Sprintf("sched: task %d %s: %v", e.ID, e.Task, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// safeRun invokes run(id), converting a panic in the task body into an
// ordinary error so one broken task cannot tear down the process before
// the executor reports which task failed.
func safeRun(run func(id int) error, id int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panicked: %v", r)
		}
	}()
	return run(id)
}

// traceKindCol maps a graph task to its trace kind and destination
// block column.
func traceKindCol(t *taskgraph.Task) (trace.Kind, int) {
	if t.Kind == taskgraph.Factor {
		return trace.KindFactor, t.K
	}
	return trace.KindUpdate, t.J
}

// Assignment maps each block column to the processor that owns it.
type Assignment []int

// BlockCyclic distributes n block columns over procs processors
// round-robin — the standard 1-D cyclic mapping.
func BlockCyclic(n, procs int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = i % procs
	}
	return a
}

// TaskOwners resolves the processor of every task under the 1-D mapping:
// Factor(k) runs on owner(k) and Update(k, j) runs on owner(j), so all
// writers of a block column are serialized on its owner.
func TaskOwners(g *taskgraph.Graph, owner Assignment) []int {
	out := make([]int, g.NumTasks())
	for id, t := range g.Tasks {
		if t.Kind == taskgraph.Factor {
			out[id] = owner[t.K]
		} else {
			out[id] = owner[t.J]
		}
	}
	return out
}

// RunOptions is everything an execution takes besides the graph and the
// task body.
type RunOptions struct {
	// Procs is the number of workers, one goroutine each (must be ≥ 1).
	Procs int
	// Owners seeds every initially ready task on the worker owning its
	// destination block column (the paper's 1-D mapping). Nil selects
	// task-level scheduling instead, RAPID's mode on shared memory: the
	// ready tasks are dealt round-robin over the workers by priority
	// rank, so the first Procs claims are exactly the Procs highest-
	// priority ready tasks.
	Owners Assignment
	// Prio orders each worker's initial claims; nil means bottom levels
	// with unit weights.
	Prio []float64
	// Trace optionally records every task execution with its worker id,
	// kind, destination column and start/stop timestamps; it must have
	// at least Procs buffers. Nil costs one predictable branch per task.
	Trace *trace.Recorder
	// Context optionally stops the execution early: once it is done,
	// workers claim no new task and Run returns a *CancelError carrying
	// context.Cause. Nil means context.Background().
	Context context.Context
}

// Run executes every task of g exactly once with the dependence order
// respected. Seeding (RunOptions.Owners) decides only where the ready
// tasks start; once running, idle workers steal from busy ones, so
// ownership is an affinity hint, not mutual exclusion — two tasks of
// one block column may run concurrently when the dependence graph
// leaves them unordered, which is bitwise-safe because such tasks write
// disjoint rows (the branch property; the orderings that matter are
// dependence edges). run is called with the task id; it must be safe
// for concurrent invocation on tasks the graph leaves unordered.
//
// The first task failure observed by any worker — a non-nil error from
// run, or a panic in the task body — stops this execution (failure
// latency is O(one running task body), not O(the remaining DAG)) and is
// returned as a *TaskError carrying the task id; o.Context is not
// cancelled. When o.Context is done, workers stop claiming new tasks —
// the check is one atomic load per claim — and the call returns a
// *CancelError matching errors.Is(err, ErrCanceled).
func Run(g *taskgraph.Graph, o RunOptions, run func(id int) error) error {
	if o.Procs < 1 {
		return fmt.Errorf("sched: procs = %d", o.Procs)
	}
	if o.Trace != nil && o.Trace.Workers() < o.Procs {
		return fmt.Errorf("sched: recorder has %d worker buffers for %d workers", o.Trace.Workers(), o.Procs)
	}
	prio := o.Prio
	if prio == nil {
		var err error
		prio, err = g.BottomLevels(nil)
		if err != nil {
			return err
		}
	}
	var place []int
	if o.Owners != nil {
		place = TaskOwners(g, o.Owners)
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return executeAsync(ctx, g, o.Procs, o.Trace, place, prio, run)
}

// Execute is the plain form of Run: owner-seeded, untraced, never
// cancelled.
func Execute(g *taskgraph.Graph, owner Assignment, procs int, prio []float64, run func(id int) error) error {
	return Run(g, RunOptions{Procs: procs, Owners: owner, Prio: prio}, run)
}
