package sched

import "sync"

// Levels is a precomputed level-set schedule of a dependence DAG:
// Order lists the task ids level-major and Off bounds the levels, so
// level l is Order[Off[l]:Off[l+1]]. The contract is the one
// internal/taskgraph.LevelSets produces: tasks within one level are
// mutually independent and every edge of the DAG points from an
// earlier level to a later one. Levels and ExecuteLevels have one
// reader, bench/layers.go (sched.levels_ns_per_task); ROADMAP's
// deletion sweep (the item the bench decoupling unlocks) deletes this
// file.
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

// ExecuteLevels runs every task of the schedule on procs workers.
// Within a level the tasks are dealt to workers by a fixed stride
// (worker p runs Order[Off[l]+p], Order[Off[l]+p+procs], …) and a
// barrier separates consecutive levels, so only true level-to-level
// dependences serialize and the task-to-worker assignment is
// deterministic. procs ≤ 1 (or a schedule smaller than procs shrinks
// the worker count accordingly) runs inline on the calling goroutine.
// Unlike Run there is no error or cancellation path.
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
