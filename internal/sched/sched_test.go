package sched

import (
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

func TestBalancedColumns(t *testing.T) {
	a := BalancedColumns([]float64{10, 1, 1, 1, 1, 1, 5}, 2)
	load := []float64{0, 0}
	cost := []float64{10, 1, 1, 1, 1, 1, 5}
	for i, p := range a {
		if p < 0 || p > 1 {
			t.Fatalf("bad proc %d", p)
		}
		load[p] += cost[i]
	}
	// Perfect split is 10 vs 10.
	if load[0] != 10 || load[1] != 10 {
		t.Fatalf("loads = %v, want [10 10]", load)
	}
}

// TestBalancedColumnsDeterministicTieBreak pins the processing order of
// the greedy balancer: descending cost, ties broken by ascending column
// index, and equal processor loads resolved toward the lowest index.
// The expected assignment is the hand-traced greedy LPT result; any
// change to the sort's tie-break changes it.
func TestBalancedColumnsDeterministicTieBreak(t *testing.T) {
	cost := []float64{1, 0.5, 4, 1, 0.5, 4, 1}
	// Processing order must be 2, 5, 0, 3, 6, 1, 4.
	want := Assignment{0, 1, 0, 1, 1, 1, 0}
	got := BalancedColumns(cost, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BalancedColumns = %v, want %v", got, want)
		}
	}

	// Randomized cross-check against a reference insertion sort with the
	// same comparator: the sort.Slice replacement must order identically
	// even with many duplicate costs.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		procs := 1 + rng.Intn(5)
		c := make([]float64, n)
		for i := range c {
			c[i] = float64(rng.Intn(4)) // few distinct values → many ties
		}
		got := BalancedColumns(c, procs)
		want := referenceBalanced(c, procs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: BalancedColumns = %v, want %v (costs %v, procs %d)",
					trial, got, want, c, procs)
			}
		}
	}
}

// referenceBalanced is the original insertion-sort implementation, kept
// as the behavioral oracle for the sort.Slice version.
func referenceBalanced(colCost []float64, procs int) Assignment {
	n := len(colCost)
	a := make(Assignment, n)
	load := make([]float64, procs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for k := i; k > 0; k-- {
			x, y := idx[k-1], idx[k]
			if colCost[x] < colCost[y] || (colCost[x] == colCost[y] && x > y) {
				idx[k-1], idx[k] = idx[k], idx[k-1]
			} else {
				break
			}
		}
	}
	for _, col := range idx {
		best := 0
		for p := 1; p < procs; p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		a[col] = best
		load[best] += colCost[col]
	}
	return a
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

// TestRunTaskLevelReturnsFirstTaskError: same contract under task-level
// seeding.
func TestRunTaskLevelReturnsFirstTaskError(t *testing.T) {
	g, _ := buildGraph(t, 10, 0.15, 95, taskgraph.SStar)
	boom := errors.New("boom")
	err := Run(g, RunOptions{Procs: 4}, func(id int) error {
		if id == 3 {
			return boom
		}
		return nil
	})
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T, want *TaskError", err)
	}
	if te.ID != 3 || !errors.Is(err, boom) {
		t.Fatalf("wrong task error: %v", err)
	}
}

func TestSimulateBasics(t *testing.T) {
	g, cm := buildGraph(t, 30, 0.1, 96, taskgraph.EForest)
	m := Origin2000(4)
	res, err := Simulate(g, cm, BlockCyclic(g.N, 4), m, PanelWords(g, cm))
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
	res, err := Simulate(g, cm, BlockCyclic(g.N, 1), m, PanelWords(g, cm))
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
		res, err := Simulate(g, cm, BlockCyclic(g.N, p), m, nil)
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
		rs, err := Simulate(gs, cms, owner, m, PanelWords(gs, cms))
		if err != nil {
			t.Fatal(err)
		}
		re, err := Simulate(ge, cme, owner, m, PanelWords(ge, cme))
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
	if _, err := Simulate(g, cm, BlockCyclic(g.N, 1), Machine{Procs: 0, FlopRate: 1}, nil); err == nil {
		t.Fatal("accepted 0 processors")
	}
	if _, err := Simulate(g, cm, BlockCyclic(g.N, 1), Machine{Procs: 1}, nil); err == nil {
		t.Fatal("accepted zero flop rate")
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
	tripped := &Canceler{}
	tripped.Cancel(boom)
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
		{"canceled", RunOptions{Procs: 2, Owners: BlockCyclic(g.N, 2), Cancel: tripped}, ok, func(err error) bool {
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

func TestTaskOwners2D(t *testing.T) {
	g, cm := buildGraph(t, 30, 0.1, 110, taskgraph.EForest)
	owners := TaskOwners2D(g, 2, 2)
	for id, p := range owners {
		if p < 0 || p >= 4 {
			t.Fatalf("task %d on proc %d", id, p)
		}
		task := g.Tasks[id]
		wantRow := task.K % 2
		wantCol := task.K % 2
		if task.Kind == taskgraph.Update {
			wantCol = task.J % 2
		}
		if p != wantRow*2+wantCol {
			t.Fatalf("task %v on proc %d, want %d", task, p, wantRow*2+wantCol)
		}
	}
	m := Origin2000(4)
	res, err := SimulateOwners(g, cm, owners, m, PanelWords(g, cm))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("2D simulation produced no schedule")
	}
	// Dependences respected.
	for id := range g.Succ {
		for _, s := range g.Succ[id] {
			if res.Start[s] < res.Finish[id]-1e-12 {
				t.Fatalf("2D: start of %d before finish of %d", s, id)
			}
		}
	}
}

func TestSimulateStaticBasics(t *testing.T) {
	g, cm := buildGraph(t, 30, 0.1, 111, taskgraph.EForest)
	m := Origin2000(4)
	res, err := SimulateStatic(g, cm, m, PanelWords(g, cm), Perturb{Amplitude: 0.5, Seed: 1})
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
	res2, err := SimulateStatic(g, cm, m, PanelWords(g, cm), Perturb{Amplitude: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != res2.Makespan {
		t.Fatal("SimulateStatic not deterministic")
	}
	// Different seed, different makespan (perturbation has effect).
	res3, err := SimulateStatic(g, cm, m, PanelWords(g, cm), Perturb{Amplitude: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan == res3.Makespan {
		t.Fatal("perturbation seed had no effect")
	}
}

func TestSimulateStaticZeroPerturbMatchesPlanOrder(t *testing.T) {
	// With no perturbation, the executed makespan should be close to the
	// planned greedy makespan (identical policies, in-order execution
	// can only add waits).
	g, cm := buildGraph(t, 40, 0.08, 112, taskgraph.EForest)
	m := Origin2000(4)
	plan, err := SimulateGlobal(g, cm, m, PanelWords(g, cm))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := SimulateStatic(g, cm, m, PanelWords(g, cm), Perturb{})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Makespan < plan.Makespan*0.99 {
		t.Fatalf("in-order execution faster than its own plan: %g vs %g", exec.Makespan, plan.Makespan)
	}
	if exec.Makespan > plan.Makespan*1.2 {
		t.Fatalf("in-order execution much slower than plan: %g vs %g", exec.Makespan, plan.Makespan)
	}
}

func TestRunTaskLevelRunsAllTasks(t *testing.T) {
	for _, procs := range []int{1, 4, 8} {
		g, _ := buildGraph(t, 25, 0.12, 113, taskgraph.EForest)
		var count int64
		err := Run(g, RunOptions{Procs: procs}, func(id int) error {
			atomic.AddInt64(&count, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != int64(g.NumTasks()) {
			t.Fatalf("P=%d: ran %d of %d", procs, count, g.NumTasks())
		}
	}
}

func TestRunTaskLevelRespectsDependences(t *testing.T) {
	g, _ := buildGraph(t, 30, 0.1, 114, taskgraph.EForest)
	pred := make([][]int, g.NumTasks())
	for id := range g.Succ {
		for _, s := range g.Succ[id] {
			pred[s] = append(pred[s], id)
		}
	}
	var mu sync.Mutex
	done := make([]bool, g.NumTasks())
	err := Run(g, RunOptions{Procs: 4}, func(id int) error {
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
}
