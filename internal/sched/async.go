package sched

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// This file is the asynchronous data-flow engine behind Run — the
// fan-both-style replacement (after Jacquelin et al., arXiv:1608.00044)
// for the mutex-and-condition ready-queue engine the earlier PRs used:
//
//   - every task carries an atomic remaining-dependence counter seeded
//     from the graph's in-degrees; a completing task decrements its
//     successors and self-enqueues the ones that hit zero, so there is
//     no level barrier and no shared ready-queue lock on the hot path;
//   - each worker owns a Chase–Lev deque (deque.go): local pops are
//     LIFO (a just-released successor reuses the panel still hot in
//     cache), steals are FIFO;
//   - the first released successor is not queued at all — the worker
//     hands it to itself and keeps running (the work-first handoff), so
//     a dependence chain executes with zero queue traffic;
//   - termination is an atomic count of unfinished tasks instead of a
//     barrier; workers that find every deque empty park on a condition
//     variable and are woken by pushes, by the last completion, by a
//     task failure, or by the execution's context being done.
//
// Determinism: the engine is free to run tasks in any order that
// respects the dependence edges, and that is sufficient for bitwise
// reproducibility at every worker count. Each destination column's
// update sequence that must be ordered (Theorem 4) is encoded as chain
// edges in the graph (an update's one successor is its chain link), so
// chain successors are released strictly in order by the dependence
// counters alone — independent of which worker runs them — and updates
// left unordered by the graph write disjoint rows (the branch property),
// so their interleaving cannot change a single bit of the result.
//
// Failure and cancellation: the first task failure (error or panic) is
// returned as a *TaskError and stops this execution only; nothing
// outside the engine is told, so a context shared with other executions
// stays live. A done context sets a flag that workers check with one
// atomic load per claim. KindAbort is recorded for the failing task;
// steal/idle trace events are opt-in via trace.Recorder.SetSchedEvents.

// stealRounds is the number of full sweeps over the victims a worker
// makes before parking. Between sweeps the worker yields its P, so on a
// machine with fewer cores than workers the deque owners can run.
const stealRounds = 4

type asyncEngine struct {
	g   *taskgraph.Graph
	rec *trace.Recorder
	run func(id int) error

	// deps[id] is the remaining-dependence counter of task id.
	deps []atomic.Int32
	// readyAt[id], kept in traced runs only, is the latest stamped end
	// among the completed predecessors of id, so that a span never
	// starts before a span it depends on ended.
	readyAt []atomic.Int64
	// deques[p] is worker p's Chase–Lev deque.
	deques []deque
	// remaining counts tasks that have not completed successfully.
	remaining atomic.Int64
	// sleepers counts workers parked (or about to park) on cond.
	sleepers atomic.Int32
	// taskErr is the first task failure any worker observed.
	taskErr atomic.Pointer[TaskError]
	// canceled is set once the execution's context is done.
	canceled atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond
}

// stopPublished, when non-nil, runs each time the engine has published
// a reason to stop: a task failure, or its context done. Only
// in-package tests set it, while no execution runs; it marks the point
// after which no worker may claim another task.
var stopPublished func()

// executeAsync runs the graph on procs workers until every task is
// done, a task fails or ctx is done; a ctx done at the start runs no
// task. place maps every task to the deque it is seeded on when ready
// at the start (nil means round-robin over the workers in priority
// order — task-level scheduling); tasks released during the run always
// join the releasing worker's deque. prio orders the initial seeding so
// the first claims are the highest-priority ready tasks. Run has
// validated procs and prio.
func executeAsync(ctx context.Context, g *taskgraph.Graph, procs int, rec *trace.Recorder,
	place []int, prio []float64, run func(id int) error) error {
	nt := g.NumTasks()
	if ctx.Err() != nil {
		return &CancelError{Cause: context.Cause(ctx), Total: nt}
	}
	e := &asyncEngine{g: g, rec: rec, run: run}
	e.cond = sync.NewCond(&e.mu)
	e.remaining.Store(int64(nt))
	e.deps = make([]atomic.Int32, nt)
	if rec != nil {
		e.readyAt = make([]atomic.Int64, nt)
	}
	for _, succ := range g.Succ {
		for _, s := range succ {
			e.deps[s].Add(1)
		}
	}
	e.deques = make([]deque, procs)
	for p := range e.deques {
		e.deques[p].init(nt)
	}

	// Seed the initially ready tasks. ready is sorted by descending
	// priority (ties toward the smaller id) and walked backwards —
	// lowest priority first — so every deque is pushed in ascending
	// priority order and the owner's LIFO pop claims its highest-
	// priority task first. Round-robin placement by priority rank makes
	// the first P claims of the task-level executor exactly the P
	// highest-priority ready tasks, which is what pins the cancellation
	// latency contract.
	ready := make([]int32, 0, nt)
	for id := range e.deps {
		if e.deps[id].Load() == 0 {
			ready = append(ready, int32(id))
		}
	}
	sort.Slice(ready, func(x, y int) bool {
		a, b := ready[x], ready[y]
		if prio[a] != prio[b] {
			return prio[a] > prio[b]
		}
		return a < b
	})
	for i := len(ready) - 1; i >= 0; i-- {
		id := ready[i]
		p := i % procs
		if place != nil {
			p = place[id]
		}
		e.deques[p].push(id)
	}

	// A context done from now on sets the flag, from a goroutine of its
	// own, and wakes the parked workers.
	defer context.AfterFunc(ctx, func() {
		e.canceled.Store(true)
		e.wakeAll()
		if stopPublished != nil {
			stopPublished()
		}
	})()

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			e.work(p)
		}(p)
	}
	wg.Wait()

	if te := e.taskErr.Load(); te != nil {
		return te
	}
	if rem := e.remaining.Load(); rem > 0 {
		return &CancelError{Cause: context.Cause(ctx), Completed: nt - int(rem), Total: nt}
	}
	return nil
}

// stopped reports whether the worker loop must exit: every task done,
// a task failure published, or the context done.
func (e *asyncEngine) stopped() bool {
	return e.remaining.Load() == 0 || e.taskErr.Load() != nil || e.canceled.Load()
}

// work is one worker's claim loop: pop locally, steal or park when the
// local deque is dry, and follow the handoff chain of released
// successors while there is one.
//
// claimed threads the trace clock through back-to-back executions: a
// task claimed while the worker never stopped working (a handoff, or a
// pop straight after a completion) starts its span at the previous
// task's stamped end, so the worker's continuous busy period is
// accounted continuously — the release/claim bookkeeping between two
// tasks lands in the next span instead of an artificial idle gap. A
// claim that followed a steal search or a park starts fresh: that time
// really was idle and must not be charged to the task.
func (e *asyncEngine) work(p int) {
	d := &e.deques[p]
	claimed := int64(-1)
	for {
		if e.stopped() {
			return
		}
		id := d.pop()
		if id < 0 {
			id = e.stealOrPark(p)
			if id < 0 {
				return // stopped while searching
			}
			claimed = -1 // searching/parking time is real idle
		}
		for id >= 0 && !e.stopped() {
			id, claimed = e.execute(p, int(id), claimed)
		}
	}
}

// execute runs one claimed task: trace it, publish the first failure,
// release its successors, and return the handoff task (the first
// successor this completion made ready) or -1, along with the stamped
// end of this task's trace span (-1 when untraced) for the next claim
// to start from.
func (e *asyncEngine) execute(p, id int, claimed int64) (int32, int64) {
	var err error
	end := int64(-1)
	if e.rec != nil {
		start := claimed
		if start < 0 {
			start = e.rec.Now()
		} else if r := e.readyAt[id].Load(); r > start {
			// A worker stamps its end before it decrements, so on a
			// handoff the last decrementer's stamp can be the earlier of
			// two predecessors' ends (a fresh Now() cannot).
			start = r
		}
		err = safeRun(e.run, id)
		kind, col := traceKindCol(&e.g.Tasks[id])
		end = e.rec.Record(p, id, kind, col, start)
		if err != nil {
			e.rec.Record(p, id, trace.KindAbort, col, e.rec.Now())
		}
	} else {
		err = safeRun(e.run, id)
	}

	if err != nil {
		te := &TaskError{ID: id, Task: e.g.Tasks[id].String(), Err: err}
		// Only the first failure is published; later ones lose the CAS
		// and are dropped, matching the previous engine's first-error
		// contract.
		e.taskErr.CompareAndSwap(nil, te)
		e.wakeAll()
		if stopPublished != nil {
			stopPublished()
		}
		return -1, end
	}
	if e.stopped() {
		// A sibling failed or the context was done while this task body
		// ran: do not count the completion or release successors — the
		// previous engine left the progress count identically.
		return -1, end
	}

	// Release the successors whose last dependence this was. The first
	// one is the handoff (run next, no queue traffic); the rest join
	// this worker's deque for thieves to find.
	next := int32(-1)
	pushed := false
	d := &e.deques[p]
	for _, s := range e.g.Succ[id] {
		if e.readyAt != nil {
			storeMax(&e.readyAt[s], end)
		}
		if e.deps[s].Add(-1) == 0 {
			if next < 0 {
				next = s
			} else {
				d.push(s)
				pushed = true
			}
		}
	}
	if e.remaining.Add(-1) == 0 {
		e.wakeAll()
		return -1, end
	}
	if pushed && e.sleepers.Load() > 0 {
		e.wakeOne()
	}
	return next, end
}

// storeMax raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		if cur := a.Load(); cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// stealOrPark searches the other workers' deques for work, parking
// between unsuccessful sweeps. It returns a stolen task id, or -1 when
// the execution stopped.
func (e *asyncEngine) stealOrPark(p int) int32 {
	schedEvents := e.rec != nil && e.rec.SchedEvents()
	var searchStart int64
	if schedEvents {
		searchStart = e.rec.Now()
	}
	for {
		for round := 0; round < stealRounds; round++ {
			if e.stopped() {
				return -1
			}
			if id, victim := e.stealSweep(p); id >= 0 {
				if schedEvents {
					e.rec.Record(p, trace.NoTask, trace.KindSteal, victim, searchStart)
				}
				return id
			}
			// Yield between sweeps: with fewer cores than workers the
			// deque owners need the P to produce anything stealable.
			runtime.Gosched()
		}
		if !e.park(p) {
			return -1
		}
		if schedEvents {
			searchStart = e.rec.Now()
		}
	}
}

// stealSweep tries every other worker's deque once, starting after p.
// It returns the stolen id and the victim, or (-1, -1).
func (e *asyncEngine) stealSweep(p int) (int32, int) {
	n := len(e.deques)
	for k := 1; k < n; k++ {
		victim := (p + k) % n
		if id, _ := e.deques[victim].steal(); id >= 0 {
			return id, victim
		}
	}
	return -1, -1
}

// park blocks the worker until something happens: a push, the last
// completion, a failure, or the context done. It reports whether the
// worker should keep searching (false means the execution stopped). The
// sleepers counter is incremented before the final work re-scan; both
// are sequentially consistent, so a concurrent pusher either observes
// the sleeper and signals, or this scan observes its push — a wakeup
// cannot be lost between the scan and the Wait.
func (e *asyncEngine) park(p int) bool {
	schedEvents := e.rec != nil && e.rec.SchedEvents()
	var start int64
	if schedEvents {
		start = e.rec.Now()
	}
	e.mu.Lock()
	e.sleepers.Add(1)
	if !e.stopped() && !e.anyWork() {
		e.cond.Wait()
	}
	e.sleepers.Add(-1)
	e.mu.Unlock()
	if schedEvents {
		e.rec.Record(p, trace.NoTask, trace.KindIdle, -1, start)
	}
	return !e.stopped()
}

// anyWork reports whether any deque is observably non-empty.
func (e *asyncEngine) anyWork() bool {
	for i := range e.deques {
		if e.deques[i].size() > 0 {
			return true
		}
	}
	return false
}

// wakeOne wakes a single parked worker (after a push left work for it).
func (e *asyncEngine) wakeOne() {
	e.mu.Lock()
	e.cond.Signal()
	e.mu.Unlock()
}

// wakeAll wakes every parked worker (termination, failure, cancel).
func (e *asyncEngine) wakeAll() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}
