package sched_test

// Pins of the schedule model against the tree it replaced (ISSUE 24):
// the makespans behind Table 2 and Figures 5–6, bit for bit, and the
// statement that an unperturbed execution is the plan.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// simGoldenFile holds math.Float64bits of the makespan of every case of
// suiteCases under the tables' perturbation. It was written at commit
// e6cca0e from SimulateStatic, the simulator Simulate replaced. A PR
// that means to move the paper's numbers deletes the file and runs the
// test once: a missing file is written from the tree and the run fails.
const simGoldenFile = "testdata/sim_golden.json"

// tablePerturb is the deviation model of Table 2 and Figures 5–6.
var tablePerturb = sched.Perturb{Amplitude: 0.5, Seed: 2000}

type simCase struct {
	name  string
	g     *taskgraph.Graph
	cm    *taskgraph.CostModel
	procs int
}

// suiteCases is SmallSuite × {eforest, S*} × P ∈ {1, 2, 4, 8}.
func suiteCases(t *testing.T) []simCase {
	t.Helper()
	var cases []simCase
	for _, spec := range matgen.SmallSuite() {
		s, err := core.Analyze(spec.Gen(), core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// The paper's graphs, on the block-level closure.
		gE := taskgraph.New(s.BlockSym, s.BlockForest, taskgraph.EForest)
		cmE := taskgraph.NewCostModel(gE, s.Stored, s.Part)
		gS := taskgraph.New(s.BlockSym, s.BlockForest, taskgraph.SStar)
		cmS := taskgraph.NewCostModel(gS, s.Stored, s.Part)
		for _, p := range []int{1, 2, 4, 8} {
			cases = append(cases,
				simCase{fmt.Sprintf("%s/eforest/P=%d", spec.Name, p), gE, cmE, p},
				simCase{fmt.Sprintf("%s/sstar/P=%d", spec.Name, p), gS, cmS, p})
		}
	}
	return cases
}

func TestSimulateGoldenMakespans(t *testing.T) {
	got := map[string]uint64{}
	for _, c := range suiteCases(t) {
		res, err := sched.Simulate(c.g, c.cm, sched.Origin2000(c.procs), sched.PanelWords(c.g, c.cm), nil, tablePerturb)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = math.Float64bits(res.Makespan)
	}
	b, err := os.ReadFile(simGoldenFile)
	if os.IsNotExist(err) {
		b, err = json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; written from this tree — review and commit it", simGoldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]uint64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", simGoldenFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, the suite %d", len(want), len(got))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: makespan %v (bits %#x), golden %v (bits %#x)", name, math.Float64frombits(g), g, math.Float64frombits(w), w)
		}
	}
}

// TestSimulateStaticZeroPerturbMatchesPlanOrder: with the zero Perturb
// the executed schedule is the plan itself — every task on the planned
// processor with the planned start and finish, exactly, not within a
// tolerance. (Planner and executor compute a start from the same
// quantities: the finish of the task before it on its processor and the
// arrivals from its predecessors.) The same holds under a fixed
// placement.
func TestSimulateStaticZeroPerturbMatchesPlanOrder(t *testing.T) {
	for _, c := range suiteCases(t) {
		m := sched.Origin2000(c.procs)
		words := sched.PanelWords(c.g, c.cm)
		for _, place := range [][]int{nil, sched.TaskOwners(c.g, sched.BlockCyclic(c.g.N, c.procs))} {
			seqs, start, finish, err := sched.Plan(c.g, c.cm, m, words, place)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			exec, err := sched.Simulate(c.g, c.cm, m, words, place, sched.Perturb{})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for p, seq := range seqs {
				for _, id := range seq {
					if exec.Proc[id] != p || exec.Start[id] != start[id] || exec.Finish[id] != finish[id] {
						t.Fatalf("%s (placed: %v): task %d ran on %d over [%v, %v], planned on %d over [%v, %v]",
							c.name, place != nil, id, exec.Proc[id], exec.Start[id], exec.Finish[id], p, start[id], finish[id])
					}
				}
			}
		}
	}
}
