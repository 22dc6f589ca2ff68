package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/etree"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

func randomZeroFreeDiag(n int, density float64, rng *rand.Rand) *sparse.CSC {
	t := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		t.Add(i, i, 1+rng.Float64())
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				t.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return t.ToCSC()
}

func buildGraph(t *testing.T, n int, density float64, seed int64, v taskgraph.Variant) (*taskgraph.Graph, *taskgraph.CostModel) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := randomZeroFreeDiag(n, density, rng)
	sym, err := symbolic.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	f := etree.LUForest(sym)
	g := taskgraph.New(sym, f, v)
	cm := taskgraph.NewCostModel(g, sym, supernode.Trivial(sym.N))
	return g, cm
}

func TestBlockCyclic(t *testing.T) {
	a := BlockCyclic(7, 3)
	want := Assignment{0, 1, 2, 0, 1, 2, 0}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("BlockCyclic = %v", a)
		}
	}
}

func TestTaskOwners(t *testing.T) {
	g, _ := buildGraph(t, 12, 0.15, 91, taskgraph.EForest)
	owner := BlockCyclic(g.N, 3)
	to := TaskOwners(g, owner)
	for id, task := range g.Tasks {
		want := owner[task.K]
		if task.Kind == taskgraph.Update {
			want = owner[task.J]
		}
		if to[id] != want {
			t.Fatalf("task %v owner %d, want %d", task, to[id], want)
		}
	}
}

func TestExecuteRunsAllTasksOnce(t *testing.T) {
	for _, v := range []taskgraph.Variant{taskgraph.SStar, taskgraph.EForest} {
		for _, procs := range []int{1, 2, 4, 8} {
			g, _ := buildGraph(t, 25, 0.12, 92, v)
			var count int64
			seen := make([]int32, g.NumTasks())
			err := Execute(g, BlockCyclic(g.N, procs), procs, nil, func(id int) error {
				atomic.AddInt64(&count, 1)
				atomic.AddInt32(&seen[id], 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if count != int64(g.NumTasks()) {
				t.Fatalf("%v P=%d: ran %d of %d tasks", v, procs, count, g.NumTasks())
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("%v P=%d: task %d ran %d times", v, procs, id, c)
				}
			}
		}
	}
}

func TestExecuteRespectsDependences(t *testing.T) {
	g, _ := buildGraph(t, 30, 0.1, 93, taskgraph.EForest)
	var mu sync.Mutex
	done := make([]bool, g.NumTasks())
	pred := make([][]int, g.NumTasks())
	for id := range g.Succ {
		for _, s := range g.Succ[id] {
			pred[s] = append(pred[s], id)
		}
	}
	err := Execute(g, BlockCyclic(g.N, 4), 4, nil, func(id int) error {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pred[id] {
			if !done[p] {
				return fmt.Errorf("dependence violated: %d ran before %d", id, p)
			}
		}
		done[id] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range done {
		if !d {
			t.Fatalf("task %d never ran", id)
		}
	}
}

func TestExecuteSerializesChainedColumns(t *testing.T) {
	// Under the work-stealing engine the 1-D ownership is an affinity
	// hint, not mutual exclusion: the serialization that matters comes
	// from the dependence edges alone. In the S* graph every task of a
	// destination column sits on one Theorem-4 chain, so two tasks of
	// the same destination column must never overlap — at any worker
	// count, wherever the thieves move them. (EForest deliberately
	// leaves independent-subtree updates unordered; those write
	// disjoint rows, so overlap there is bitwise-safe and allowed.)
	g, _ := buildGraph(t, 25, 0.15, 94, taskgraph.SStar)
	owner := BlockCyclic(g.N, 4)
	var mu sync.Mutex
	active := make(map[int]int) // destination column -> active count
	err := Execute(g, owner, 4, nil, func(id int) error {
		dest := g.Tasks[id].K
		if g.Tasks[id].Kind == taskgraph.Update {
			dest = g.Tasks[id].J
		}
		mu.Lock()
		active[dest]++
		over := active[dest] > 1
		mu.Unlock()
		if over {
			return errors.New("two tasks active on one block column")
		}
		mu.Lock()
		active[dest]--
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecuteReturnsFirstTaskError pins the executor error contract:
// the first task failure observed by any worker is returned — not
// swallowed, not panicked — as a *TaskError carrying the task id.
func TestExecuteReturnsFirstTaskError(t *testing.T) {
	g, _ := buildGraph(t, 10, 0.15, 95, taskgraph.SStar)
	boom := errors.New("boom")
	err := Execute(g, BlockCyclic(g.N, 2), 2, nil, func(id int) error {
		if id == 3 {
			return boom
		}
		return nil
	})
	if err == nil {
		t.Fatal("task error swallowed")
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T, want *TaskError", err)
	}
	if te.ID != 3 {
		t.Fatalf("TaskError.ID = %d, want 3", te.ID)
	}
	if te.Task != g.Tasks[3].String() {
		t.Fatalf("TaskError.Task = %q, want %q", te.Task, g.Tasks[3].String())
	}
	if !errors.Is(err, boom) {
		t.Fatalf("errors.Is lost the cause: %v", err)
	}
}

// TestExecuteConvertsPanicToError: a panic in a task body surfaces as a
// *TaskError instead of tearing down the process.
func TestExecuteConvertsPanicToError(t *testing.T) {
	g, _ := buildGraph(t, 10, 0.15, 95, taskgraph.SStar)
	err := Execute(g, BlockCyclic(g.N, 2), 2, nil, func(id int) error {
		if id == 3 {
			panic("boom")
		}
		return nil
	})
	var te *TaskError
	if !errors.As(err, &te) || te.ID != 3 {
		t.Fatalf("panic not converted to TaskError: %v", err)
	}
}

func TestSimulateBasics(t *testing.T) {
	g, cm := buildGraph(t, 30, 0.1, 96, taskgraph.EForest)
	m := Origin2000(4)
	res, err := Simulate(g, cm, m, PanelWords(g, cm), TaskOwners(g, BlockCyclic(g.N, 4)), Perturb{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}
	for id := range g.Tasks {
		if res.Finish[id] < res.Start[id] {
			t.Fatalf("task %d finishes before it starts", id)
		}
	}
	// Dependences respected in simulated times.
	for id := range g.Succ {
		for _, s := range g.Succ[id] {
			if res.Start[s] < res.Finish[id]-1e-12 {
				t.Fatalf("simulated start of %d before finish of predecessor %d", s, id)
			}
		}
	}
	if e := res.Efficiency(); e <= 0 || e > 1+1e-9 {
		t.Fatalf("efficiency %g out of range", e)
	}
}

func TestSimulateOneProcEqualsSerialTime(t *testing.T) {
	g, cm := buildGraph(t, 20, 0.12, 97, taskgraph.EForest)
	m := Origin2000(1)
	res, err := Simulate(g, cm, m, PanelWords(g, cm), TaskOwners(g, BlockCyclic(g.N, 1)), Perturb{})
	if err != nil {
		t.Fatal(err)
	}
	want := cm.TotalFlops()/m.FlopRate + float64(g.NumTasks())*m.TaskOverhead
	if diff := res.Makespan - want; diff > 1e-9*want || diff < -1e-9*want {
		t.Fatalf("P=1 makespan %g, want serial %g", res.Makespan, want)
	}
	if res.CommEvents != 0 {
		t.Fatalf("P=1 had %d comm events", res.CommEvents)
	}
}

func TestSimulateSpeedupMonotoneIsh(t *testing.T) {
	// More processors must never make the simulated makespan worse than
	// 1.6× the previous level (greedy schedules are not strictly
	// monotone, but collapse would indicate a bug) and P=8 must beat P=1.
	// Communication is disabled here: with unit-width blocks the tasks
	// are nanoseconds while a message costs microseconds, so the real
	// machine model is legitimately communication-bound (that is why the
	// paper amalgamates supernodes). Zero-cost messages isolate the
	// scheduling behaviour.
	g, cm := buildGraph(t, 60, 0.06, 98, taskgraph.EForest)
	var prev float64
	var first float64
	for _, p := range []int{1, 2, 4, 8} {
		m := Machine{Procs: p, FlopRate: 180e6}
		res, err := Simulate(g, cm, m, nil, TaskOwners(g, BlockCyclic(g.N, p)), Perturb{})
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			first = res.Makespan
		} else if res.Makespan > prev*1.6 {
			t.Fatalf("P=%d makespan %g much worse than previous %g", p, res.Makespan, prev)
		}
		prev = res.Makespan
	}
	if prev >= first {
		t.Fatalf("P=8 (%g) not faster than P=1 (%g)", prev, first)
	}
}

func TestSimulateEForestNotSlowerThanSStar(t *testing.T) {
	// The paper's Figures 5–6: with identical machine, mapping and
	// costs, the eforest graph should be at least as fast as S* on
	// multiple processors (aggregated across seeds to tolerate greedy
	// scheduling noise).
	var sumS, sumE float64
	for seed := int64(0); seed < 6; seed++ {
		gs, cms := buildGraph(t, 50, 0.07, 990+seed, taskgraph.SStar)
		ge, cme := buildGraph(t, 50, 0.07, 990+seed, taskgraph.EForest)
		owner := BlockCyclic(gs.N, 4)
		m := Origin2000(4)
		rs, err := Simulate(gs, cms, m, PanelWords(gs, cms), TaskOwners(gs, owner), Perturb{})
		if err != nil {
			t.Fatal(err)
		}
		re, err := Simulate(ge, cme, m, PanelWords(ge, cme), TaskOwners(ge, owner), Perturb{})
		if err != nil {
			t.Fatal(err)
		}
		sumS += rs.Makespan
		sumE += re.Makespan
	}
	if sumE > sumS*1.02 {
		t.Fatalf("eforest aggregate makespan %g worse than S* %g", sumE, sumS)
	}
}

func TestSimulateRejectsBadMachine(t *testing.T) {
	g, cm := buildGraph(t, 10, 0.15, 99, taskgraph.SStar)
	if _, err := Simulate(g, cm, Machine{Procs: 0, FlopRate: 1}, nil, nil, Perturb{}); err == nil {
		t.Fatal("accepted 0 processors")
	}
	if _, err := Simulate(g, cm, Machine{Procs: 1}, nil, nil, Perturb{}); err == nil {
		t.Fatal("accepted zero flop rate")
	}
	m := Machine{Procs: 2, FlopRate: 1}
	if _, err := Simulate(g, cm, m, nil, make([]int, g.NumTasks()-1), Perturb{}); err == nil {
		t.Fatal("accepted a placement shorter than the graph")
	}
	place := make([]int, g.NumTasks())
	place[0] = 2
	if _, err := Simulate(g, cm, m, nil, place, Perturb{}); err == nil {
		t.Fatal("accepted a processor outside the machine")
	}
}

// TestRunContract pins what Run decides once for every caller: argument
// validation, the nil-Prio default and the two error types.
func TestRunContract(t *testing.T) {
	// Ready tasks 0, 1, 2 with unit-weight bottom levels 1, 2, 3
	// (1 → 5 and 2 → 3 → 4), so the default priority order is visible in
	// the serial claim order: 2 first, then its chain by handoff.
	g := &taskgraph.Graph{N: 7, Tasks: make([]taskgraph.Task, 6), Succ: [][]int32{nil, {5}, {3}, {4}, nil, nil}}
	for i := range g.Tasks {
		g.Tasks[i] = taskgraph.Task{Kind: taskgraph.Update, K: 0, J: i + 1}
	}
	levels, err := g.BottomLevels(nil)
	if err != nil {
		t.Fatal(err)
	}
	order := func(prio []float64) []int {
		var got []int
		if err := Run(g, RunOptions{Procs: 1, Prio: prio}, func(id int) error {
			got = append(got, id)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got, want := fmt.Sprint(order(nil)), fmt.Sprint(order(levels)); got != want || got != "[2 3 4 1 5 0]" {
		t.Fatalf("nil Prio ran %s, bottom levels ran %s, want [2 3 4 1 5 0]", got, want)
	}
	if got := order([]float64{9, 0, 0, 0, 0, 0}); got[0] != 0 {
		t.Fatalf("explicit Prio ignored: ran %v", got)
	}

	boom := errors.New("boom")
	tripped, cancel := context.WithCancelCause(context.Background())
	cancel(boom)
	ok := func(int) error { return nil }
	for _, tc := range []struct {
		name  string
		o     RunOptions
		run   func(int) error
		check func(error) bool
	}{
		{"procs < 1", RunOptions{Procs: 0}, ok, func(err error) bool { return err != nil }},
		{"recorder too small", RunOptions{Procs: 2, Trace: trace.New(1)}, ok, func(err error) bool { return err != nil }},
		{"recorder large enough", RunOptions{Procs: 2, Trace: trace.New(2)}, ok, func(err error) bool { return err == nil }},
		{"task failure", RunOptions{Procs: 2}, func(id int) error {
			if id == 3 {
				return boom
			}
			return nil
		}, func(err error) bool {
			var te *TaskError
			return errors.As(err, &te) && te.ID == 3 && errors.Is(err, boom)
		}},
		{"canceled", RunOptions{Procs: 2, Context: tripped}, ok, func(err error) bool {
			var ce *CancelError
			return errors.As(err, &ce) && ce.Total == 6 && errors.Is(err, ErrCanceled) && errors.Is(err, boom)
		}},
	} {
		if err := Run(g, tc.o, tc.run); !tc.check(err) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}

func TestExecuteRejectsBadProcs(t *testing.T) {
	g, _ := buildGraph(t, 5, 0.2, 100, taskgraph.SStar)
	if err := Execute(g, BlockCyclic(g.N, 1), 0, nil, func(int) error { return nil }); err == nil {
		t.Fatal("accepted 0 processors")
	}
}

func TestSimulateStaticBasics(t *testing.T) {
	g, cm := buildGraph(t, 30, 0.1, 111, taskgraph.EForest)
	m := Origin2000(4)
	res, err := Simulate(g, cm, m, PanelWords(g, cm), nil, Perturb{Amplitude: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	for id := range g.Succ {
		for _, s := range g.Succ[id] {
			if res.Start[s] < res.Finish[id]-1e-12 {
				t.Fatalf("static: start of %d before finish of %d", s, id)
			}
		}
	}
	// Deterministic across runs.
	res2, err := Simulate(g, cm, m, PanelWords(g, cm), nil, Perturb{Amplitude: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != res2.Makespan {
		t.Fatal("Simulate not deterministic")
	}
	// Different seed, different makespan (perturbation has effect).
	res3, err := Simulate(g, cm, m, PanelWords(g, cm), nil, Perturb{Amplitude: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan == res3.Makespan {
		t.Fatal("perturbation seed had no effect")
	}
}

// diamondGraph is 0 → {1, 2} → 3 with unit costs.
func diamondGraph() (*taskgraph.Graph, *taskgraph.CostModel) {
	g := &taskgraph.Graph{N: 5, Tasks: make([]taskgraph.Task, 4), Succ: [][]int32{{1, 2}, {3}, {3}, nil}}
	for i := range g.Tasks {
		g.Tasks[i] = taskgraph.Task{Kind: taskgraph.Update, K: 0, J: i + 1}
	}
	return g, &taskgraph.CostModel{TaskFlops: []float64{1, 1, 1, 1}}
}

func TestReplayInOrder(t *testing.T) {
	g, cm := diamondGraph()
	// 0 at [0,1); 1 and 2 at [1,2); 3 at [2,3).
	res, err := Replay(g, [][]int32{{0, 1, 3}, {2}}, cm, Machine{Procs: 2, FlopRate: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3 || res.Start[2] != 1 || res.Proc[2] != 1 || res.CommEvents != 2 {
		t.Fatalf("two workers: %+v", res)
	}
	// A message on 0 → 2 and on 2 → 3 delays the tail by twice its cost.
	res, err = Replay(g, [][]int32{{0, 1, 3}, {2}}, cm, Machine{Procs: 2, FlopRate: 1, Latency: 0.5}, nil)
	if err != nil || res.Makespan != 4 {
		t.Fatalf("with latency: makespan %v (%v), want 4", res, err)
	}
	// Serial schedule: all four tasks on one worker.
	res, err = Replay(g, [][]int32{{0, 1, 2, 3}}, cm, Machine{Procs: 1, FlopRate: 1}, nil)
	if err != nil || res.Makespan != 4 {
		t.Fatalf("serial: makespan %v (%v), want 4", res, err)
	}
}

func TestReplayRejectsBadSchedules(t *testing.T) {
	g, cm := diamondGraph()
	one := Machine{Procs: 1, FlopRate: 1}
	for _, tc := range []struct {
		name string
		seqs [][]int32
		m    Machine
	}{
		{"missing task", [][]int32{{0, 1, 2}}, one},
		{"duplicate task", [][]int32{{0, 1, 2, 3, 3}}, one},
		{"task id past the graph", [][]int32{{0, 1, 2, 4}}, one},
		{"negative task id", [][]int32{{0, 1, 2, -1}}, one},
		// 3 before its predecessors on the only worker: in-order
		// execution deadlocks.
		{"deadlocking order", [][]int32{{3, 0, 1, 2}}, one},
		// Two workers each waiting for a task behind the other's head.
		{"cross-worker deadlock", [][]int32{{3, 1}, {2, 0}}, Machine{Procs: 2, FlopRate: 1}},
		{"more sequences than processors", [][]int32{{0, 1}, {2, 3}}, one},
		{"bad machine", [][]int32{{0, 1, 2, 3}}, Machine{Procs: 1}},
	} {
		if _, err := Replay(g, tc.seqs, cm, tc.m, nil); err == nil {
			t.Errorf("%s not rejected", tc.name)
		}
	}
}
