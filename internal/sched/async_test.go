package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// TestDequeOwnerLIFOThiefFIFO pins the claim orders of the Chase–Lev
// deque: the owner pops the most recently pushed task (cache-warm
// successor first), a thief steals the oldest one.
func TestDequeOwnerLIFOThiefFIFO(t *testing.T) {
	var d deque
	d.init(8)
	for id := int32(0); id < 5; id++ {
		d.push(id)
	}
	if id := d.pop(); id != 4 {
		t.Fatalf("pop = %d, want 4 (LIFO)", id)
	}
	if id, ok := d.steal(); !ok || id != 0 {
		t.Fatalf("steal = %d,%v, want 0,true (FIFO)", id, ok)
	}
	if id, ok := d.steal(); !ok || id != 1 {
		t.Fatalf("steal = %d,%v, want 1,true", id, ok)
	}
	if id := d.pop(); id != 3 {
		t.Fatalf("pop = %d, want 3", id)
	}
	if id := d.pop(); id != 2 {
		t.Fatalf("pop = %d, want 2", id)
	}
	if id := d.pop(); id != -1 {
		t.Fatalf("pop on empty = %d, want -1", id)
	}
	if id, ok := d.steal(); ok || id != -1 {
		t.Fatalf("steal on empty = %d,%v, want -1,false", id, ok)
	}
}

// TestDequeStealStress races one owner (pushing all ids and popping)
// against several thieves and checks every id is delivered exactly once
// — in particular the CAS-arbitrated last-element race between pop and
// steal must never duplicate or drop a task. Run under -race this is
// the memory-model proof for the deque.
func TestDequeStealStress(t *testing.T) {
	const n = 20000
	const thieves = 3
	var d deque
	d.init(n)

	seen := make([]atomic.Int32, n)
	claim := func(id int32) {
		if id < 0 {
			t.Errorf("claimed negative id %d", id)
			return
		}
		seen[id].Add(1)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if id, ok := d.steal(); ok && id >= 0 {
					claim(id)
				}
			}
			// Drain whatever the owner left behind.
			for {
				id, ok := d.steal()
				if !ok {
					return
				}
				if id >= 0 {
					claim(id)
				}
			}
		}()
	}

	// Owner: push everything in bursts, popping in between so the
	// last-element race happens many times.
	for id := int32(0); id < n; id++ {
		d.push(id)
		if id%3 == 0 {
			if got := d.pop(); got >= 0 {
				claim(got)
			}
		}
	}
	for {
		id := d.pop()
		if id < 0 {
			break
		}
		claim(id)
	}
	done.Store(true)
	wg.Wait()

	for id := range seen {
		if c := seen[id].Load(); c != 1 {
			t.Fatalf("task %d delivered %d times, want exactly once", id, c)
		}
	}
}

// TestAsyncStarvationTermination is the starvation/termination stress
// for the work-stealing engine: heavily skewed task costs concentrate
// work on a few tasks while fault-injected delays stall others, so
// workers repeatedly run dry, steal, park and get woken. The engine
// must still terminate (no deadlock, guarded by a watchdog) with every
// task run exactly once — under -race this also proves the park/unpark
// protocol cannot lose a wakeup.
func TestAsyncStarvationTermination(t *testing.T) {
	g, _ := buildGraph(t, 60, 0.08, 20260808, taskgraph.EForest)
	nt := g.NumTasks()

	// Delay a deterministic sample of tasks so the victims' deques are
	// empty exactly when thieves come looking.
	inj := faultinject.New()
	for _, id := range faultinject.PickTasks(7, nt, 24) {
		inj.Set(id, faultinject.Fault{Mode: faultinject.Delay, Sleep: 300 * time.Microsecond})
	}

	ran := make([]atomic.Int32, nt)
	sink := 0.0
	var sinkMu sync.Mutex
	run := inj.Wrap(func(id int) error {
		ran[id].Add(1)
		// Skewed costs: every 17th task is ~100x heavier.
		iters := 50
		if id%17 == 0 {
			iters = 5000
		}
		s := 0.0
		for i := 0; i < iters; i++ {
			s += float64(i) * 1e-9
		}
		sinkMu.Lock()
		sink += s
		sinkMu.Unlock()
		return nil
	}, nil)

	for _, exec := range []struct {
		name string
		call func() error
	}{
		{"owner-mapped", func() error {
			return Execute(g, BlockCyclic(g.N, 8), 8, nil, run)
		}},
		{"global-steal", func() error {
			return Run(g, RunOptions{Procs: 8}, run)
		}},
	} {
		for i := range ran {
			ran[i].Store(0)
		}
		errc := make(chan error, 1)
		go func() { errc <- exec.call() }()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("%s: %v", exec.name, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s: executor deadlocked (watchdog fired)", exec.name)
		}
		for id := range ran {
			if c := ran[id].Load(); c != 1 {
				t.Fatalf("%s: task %d ran %d times, want exactly once", exec.name, id, c)
			}
		}
	}
	_ = sink
}

// TestAsyncChainOrderTraced checks the determinism mechanism end to
// end: the Theorem-4 per-destination update chains are dependence edges
// (an update's one successor is its chain link), so in a traced parallel
// run every chain successor must start at or after its predecessor
// finished — on any worker, purely because the dependence counters
// released it late.
func TestAsyncChainOrderTraced(t *testing.T) {
	for _, variant := range []taskgraph.Variant{taskgraph.SStar, taskgraph.EForest} {
		g, _ := buildGraph(t, 48, 0.1, 42, variant)
		nt := g.NumTasks()
		rec := trace.New(8)
		if err := Run(g, RunOptions{Procs: 8, Trace: rec}, func(id int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		start := make([]int64, nt)
		end := make([]int64, nt)
		for _, ev := range rec.Events() {
			if ev.Task >= 0 {
				start[ev.Task] = ev.Start
				end[ev.Task] = ev.End
			}
		}
		chains := 0
		for id, task := range g.Tasks {
			succ := g.Succ[id]
			if task.Kind != taskgraph.Update || len(succ) == 0 {
				continue
			}
			// A second successor would leave the chain link ambiguous.
			if len(succ) > 1 {
				t.Fatalf("variant %v: update %v has successors %v, want at most one", variant, task, succ)
			}
			chains++
			if next := succ[0]; start[next] < end[id] {
				t.Fatalf("variant %v: chain successor %d started at %d before predecessor %d ended at %d",
					variant, next, start[next], id, end[id])
			}
		}
		if chains == 0 {
			t.Fatalf("variant %v: graph has no chain edges — test is vacuous", variant)
		}
	}
}
