package sched_test

// Cross-checks between the discrete-event simulator and the realized
// traces of real executions (ISSUE 2, satellite 4): under unit task
// costs the two must tell the same story. On one processor both reduce
// to "one task per time unit", so the agreement is exact; on several
// processors the realized schedule is one of the feasible list
// schedules, so it is pinned between the dependence-graph lower bounds
// and the serial upper bound.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// factorTraced runs a traced numeric factorization of one generated
// matrix and returns the task graph with the merged trace events.
func factorTraced(t *testing.T, spec matgen.Spec, workers int) (*taskgraph.Graph, []trace.Event) {
	t.Helper()
	a := spec.Gen()
	opts := core.DefaultOptions()
	opts.Workers = workers
	rec := trace.New(workers)
	opts.Trace = rec
	s, err := core.Analyze(a, opts)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	if _, err := core.FactorizeWith(s, a); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return s.Graph, rec.Events()
}

func unitCosts(n int) *taskgraph.CostModel {
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	return &taskgraph.CostModel{TaskFlops: ones}
}

// replayUnit replays the realized per-worker sequences of a traced run
// on p workers under unit task costs, through the executor that also
// produces the paper's tables.
func replayUnit(g *taskgraph.Graph, events []trace.Event, p int) (float64, error) {
	res, err := sched.Replay(g, trace.WorkerSequences(events, p), unitCosts(g.NumTasks()), sched.Machine{Procs: p, FlopRate: 1}, nil)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// TestTraceSerialMakespanMatchesSimulator: on one processor with unit
// costs, the simulator's predicted makespan and the realized trace's
// unit-cost replay must agree exactly — both are simply the task count.
func TestTraceSerialMakespanMatchesSimulator(t *testing.T) {
	for _, spec := range matgen.SmallSuite()[:3] {
		g, events := factorTraced(t, spec, 1)
		realized, err := replayUnit(g, events, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		res, err := sched.Simulate(g, unitCosts(g.NumTasks()), sched.Machine{Procs: 1, FlopRate: 1}, nil, nil, sched.Perturb{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if realized != res.Makespan {
			t.Fatalf("%s: realized unit makespan %g, simulated %g", spec.Name, realized, res.Makespan)
		}
		if realized != float64(g.NumTasks()) {
			t.Fatalf("%s: serial unit makespan %g, want task count %d", spec.Name, realized, g.NumTasks())
		}
	}
}

// TestTraceParallelMakespanWithinSimulatorBounds: on several workers the
// realized schedule must respect the same unit-cost bounds the
// simulator's schedules do — at least the dependence critical path, at
// least the work bound ⌈tasks/P⌉, at most the serial makespan.
func TestTraceParallelMakespanWithinSimulatorBounds(t *testing.T) {
	spec := matgen.SmallSuite()[0]
	for _, p := range []int{2, 4, 8} {
		g, events := factorTraced(t, spec, p)
		realized, err := replayUnit(g, events, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		nt := g.NumTasks()
		cp, _, err := g.CriticalPath(nil)
		if err != nil {
			t.Fatal(err)
		}
		workBound := (nt + p - 1) / p
		if realized < cp {
			t.Fatalf("P=%d: realized %g below the critical path %g", p, realized, cp)
		}
		if realized < float64(workBound) {
			t.Fatalf("P=%d: realized %g below the work bound %d", p, realized, workBound)
		}
		if realized > float64(nt) {
			t.Fatalf("P=%d: realized %g above the serial bound %d", p, realized, nt)
		}
	}
}

// TestTraceRecordsOnePairPerTask: tracing a multi-worker run must
// record exactly one start/stop pair per task, with sane timestamps and
// worker ids. Run under -race this also exercises the lock-free
// recorder for data races against the executor.
func TestTraceRecordsOnePairPerTask(t *testing.T) {
	spec := matgen.SmallSuite()[0]
	for _, p := range []int{2, 4, 8} {
		g, events := factorTraced(t, spec, p)
		if len(events) != g.NumTasks() {
			t.Fatalf("P=%d: %d events for %d tasks", p, len(events), g.NumTasks())
		}
		seen := make([]int, g.NumTasks())
		for _, e := range events {
			if e.Task < 0 || int(e.Task) >= g.NumTasks() {
				t.Fatalf("P=%d: event for unknown task %d", p, e.Task)
			}
			seen[e.Task]++
			if e.End < e.Start {
				t.Fatalf("P=%d: task %d stops before it starts", p, e.Task)
			}
			if e.Worker < 0 || int(e.Worker) >= p {
				t.Fatalf("P=%d: task %d on worker %d", p, e.Task, e.Worker)
			}
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("P=%d: task %d recorded %d times", p, id, n)
			}
		}
	}
}
