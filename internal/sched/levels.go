package sched

import (
	"sync"
	"sync/atomic"
)

// Levels is a precomputed level-set schedule of a dependence DAG:
// Order lists the task ids level-major and Off bounds the levels, so
// level l is Order[Off[l]:Off[l+1]]. The contract is the one
// internal/taskgraph.LevelSets produces: tasks within one level are
// mutually independent and every edge of the DAG points from an
// earlier level to a later one. The triangular-solve engine of
// internal/core builds one Levels per sweep at analysis time and
// replays it on every solve.
type Levels struct {
	Order []int32
	Off   []int32
}

// NewLevels wraps an (order, offsets) pair as a schedule.
func NewLevels(order, off []int32) *Levels {
	return &Levels{Order: order, Off: off}
}

// NumTasks returns the number of scheduled tasks.
func (lv *Levels) NumTasks() int { return len(lv.Order) }

// NumLevels returns the number of levels.
func (lv *Levels) NumLevels() int {
	if len(lv.Off) == 0 {
		return 0
	}
	return len(lv.Off) - 1
}

// Reversed returns a valid schedule of the edge-reversed DAG: the same
// level sets executed in the opposite order. Every edge u→v of the
// original DAG crosses from an earlier to a later level, so after
// reversing both the edges and the level order, v's level again comes
// before u's; within-level independence is direction-free. The
// transpose triangular sweeps run on the reversed schedules of the
// forward/backward ones.
func (lv *Levels) Reversed() *Levels {
	nl := lv.NumLevels()
	order := make([]int32, 0, len(lv.Order))
	off := make([]int32, 1, nl+1)
	for l := nl - 1; l >= 0; l-- {
		order = append(order, lv.Order[lv.Off[l]:lv.Off[l+1]]...)
		off = append(off, int32(len(order)))
	}
	return &Levels{Order: order, Off: off}
}

// ExecuteLevels runs every task of the schedule on procs workers.
// Within a level the tasks are dealt to workers by a fixed stride
// (worker p runs Order[Off[l]+p], Order[Off[l]+p+procs], …) and a
// barrier separates consecutive levels, so only true level-to-level
// dependences serialize and the task-to-worker assignment is
// deterministic. procs ≤ 1 (or a schedule smaller than procs shrinks
// the worker count accordingly) runs inline on the calling goroutine.
//
// Unlike Run there is no error or cancellation path: the triangular
// solves this executor carries have none (singularity is decided at
// factorization time, non-finite values propagate deterministically),
// which keeps the per-level barrier free of the cancellation machinery
// and the hot loop free of atomics.
func ExecuteLevels(lv *Levels, procs int, run func(worker, task int)) {
	if procs > lv.NumTasks() {
		procs = lv.NumTasks()
	}
	if procs <= 1 {
		for _, id := range lv.Order {
			run(0, int(id))
		}
		return
	}
	nl := lv.NumLevels()
	bar := newLevelBarrier(procs)
	var wg sync.WaitGroup
	wg.Add(procs)
	for p := 0; p < procs; p++ {
		go func(p int) {
			defer wg.Done()
			for l := 0; l < nl; l++ {
				lo, hi := int(lv.Off[l]), int(lv.Off[l+1])
				for i := lo + p; i < hi; i += procs {
					run(p, int(lv.Order[i]))
				}
				bar.await()
			}
		}(p)
	}
	wg.Wait()
}

// ExecuteLevelsCancelable is ExecuteLevels under the executors'
// cancellation contract: every worker polls the canceler once per task
// claim (a single atomic load, exactly like the numeric engine), and
// once it trips no further task bodies run — the level barriers still
// complete, so the workers drain cleanly instead of deadlocking a
// partially arrived barrier. It returns nil when every task ran and a
// *CancelError carrying the cancellation cause and the completed-task
// count otherwise. A nil canceler delegates to ExecuteLevels and can
// never fail, so the uncancelled hot path stays free of atomics.
//
// The triangular solves run on this executor when a deadline or an
// external canceler bounds the solve phase; a canceled sweep leaves
// the right-hand-side panel in an unspecified partial state, which is
// why the solves only ever cancel work on pooled scratch, never on
// caller-visible results.
func ExecuteLevelsCancelable(lv *Levels, procs int, cancel *Canceler, run func(worker, task int)) error {
	if cancel == nil {
		ExecuteLevels(lv, procs, run)
		return nil
	}
	if procs > lv.NumTasks() {
		procs = lv.NumTasks()
	}
	var completed atomic.Int64
	if procs <= 1 {
		for _, id := range lv.Order {
			if cancel.Canceled() {
				break
			}
			run(0, int(id))
			completed.Add(1)
		}
	} else {
		nl := lv.NumLevels()
		bar := newLevelBarrier(procs)
		var wg sync.WaitGroup
		wg.Add(procs)
		for p := 0; p < procs; p++ {
			go func(p int) {
				defer wg.Done()
				for l := 0; l < nl; l++ {
					lo, hi := int(lv.Off[l]), int(lv.Off[l+1])
					for i := lo + p; i < hi; i += procs {
						if cancel.Canceled() {
							break
						}
						run(p, int(lv.Order[i]))
						completed.Add(1)
					}
					bar.await()
				}
			}(p)
		}
		wg.Wait()
	}
	// A canceler that trips after the last task body finished has
	// nothing left to cancel: the sweep is complete and its result is
	// valid, so the race between a deadline timer and the final task is
	// resolved in favor of the finished work.
	if done := int(completed.Load()); done < lv.NumTasks() && cancel.Canceled() {
		return &CancelError{
			Cause:     cancel.Cause(),
			Completed: done,
			Total:     lv.NumTasks(),
		}
	}
	return nil
}

// levelBarrier is a reusable generation-counted barrier: the last of
// the parties to arrive advances the generation and wakes the rest. A
// blocking (cond-based) barrier is deliberate — the solve levels are
// often far wider than the worker count, so a worker that finishes a
// level early should yield the core to the stragglers rather than
// spin on it.
type levelBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     int
}

func newLevelBarrier(parties int) *levelBarrier {
	b := &levelBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all parties have called await for the current
// generation.
func (b *levelBarrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
