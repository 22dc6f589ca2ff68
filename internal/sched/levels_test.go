package sched

import (
	"sync/atomic"
	"testing"
)

// testLevels is a 3-level schedule over 10 tasks:
// level 0 = {0..3}, level 1 = {4..6}, level 2 = {7..9}.
func testLevels() *Levels {
	return NewLevels(
		[]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		[]int32{0, 4, 7, 10},
	)
}

// TestExecuteLevelsRunsEachTaskOnce checks the basic contract at a
// range of worker counts, including counts above the task count.
func TestExecuteLevelsRunsEachTaskOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8, 64} {
		lv := testLevels()
		var ran [10]int32
		ExecuteLevels(lv, procs, func(worker, task int) {
			atomic.AddInt32(&ran[task], 1)
		})
		for id, c := range ran {
			if c != 1 {
				t.Fatalf("procs=%d: task %d ran %d times", procs, id, c)
			}
		}
	}
}

// TestExecuteLevelsBarrier checks the level barrier: when a task of
// level l starts, every task of the levels before l has finished. The
// assertion rides on an atomic done counter — at the start of any task
// of level l, done must already cover Off[l] tasks.
func TestExecuteLevelsBarrier(t *testing.T) {
	lv := testLevels()
	lvlOf := make([]int, lv.NumTasks())
	for l := 0; l < lv.NumLevels(); l++ {
		for i := lv.Off[l]; i < lv.Off[l+1]; i++ {
			lvlOf[lv.Order[i]] = l
		}
	}
	for _, procs := range []int{2, 4, 8} {
		var done atomic.Int32
		var bad atomic.Int32
		ExecuteLevels(lv, procs, func(worker, task int) {
			if done.Load() < lv.Off[lvlOf[task]] {
				bad.Add(1)
			}
			done.Add(1)
		})
		if bad.Load() != 0 {
			t.Fatalf("procs=%d: %d tasks started before their prior levels completed", procs, bad.Load())
		}
		done.Store(0)
	}
}

func TestExecuteLevelsEmpty(t *testing.T) {
	lv := NewLevels(nil, []int32{0})
	ExecuteLevels(lv, 4, func(worker, task int) {
		t.Fatal("task ran on an empty schedule")
	})
	if lv.NumTasks() != 0 || lv.NumLevels() != 0 {
		t.Fatalf("empty schedule reports %d tasks, %d levels", lv.NumTasks(), lv.NumLevels())
	}
}
