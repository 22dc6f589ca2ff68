package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func small(t *testing.T) []matgen.Spec {
	t.Helper()
	return matgen.SmallSuite()[:3] // keep the test quick
}

func TestTable1(t *testing.T) {
	rows, err := Table1(small(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FillRatio < 1 || r.FactorNNZ < r.NNZ {
			t.Fatalf("%s: implausible fill: %+v", r.Name, r)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, rows[0].Name) {
		t.Fatalf("format missing content:\n%s", out)
	}
}

func TestTable2Sim(t *testing.T) {
	rows, err := Table2(small(t), []int{1, 2, 4, 8}, Sim)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Seconds) != 4 {
			t.Fatalf("%s: %d times", r.Name, len(r.Seconds))
		}
		for _, s := range r.Seconds {
			if s <= 0 {
				t.Fatalf("%s: non-positive time", r.Name)
			}
		}
		if r.Speedup <= 1 {
			t.Fatalf("%s: simulated speedup %g at P=8 not above 1", r.Name, r.Speedup)
		}
	}
	out := FormatTable2(rows, Sim)
	if !strings.Contains(out, "P=8") {
		t.Fatalf("format missing header:\n%s", out)
	}
}

func TestTable2Real(t *testing.T) {
	rows, err := Table2(small(t)[:1], []int{1, 2}, Real)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Seconds) != 2 {
		t.Fatal("wrong shape")
	}
	for _, s := range rows[0].Seconds {
		if s <= 0 {
			t.Fatal("non-positive wall time")
		}
	}
}

func TestTable3(t *testing.T) {
	rows, err := Table3(small(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SN < 1 || r.SNPO < 1 || r.NoBlks < 1 {
			t.Fatalf("%s: %+v", r.Name, r)
		}
		if r.SNPO > r.SN {
			t.Fatalf("%s: postordering increased supernodes %d→%d", r.Name, r.SN, r.SNPO)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "SN/SNPO") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

func TestFigure(t *testing.T) {
	rows, err := Figure(small(t)[:2], []int{2, 4, 8}, Sim)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Improvement) != 3 {
			t.Fatalf("%s: %d points", r.Name, len(r.Improvement))
		}
		for i, v := range r.Improvement {
			if v < -0.10 {
				t.Fatalf("%s P=%d: eforest graph more than 10%% slower (%g)", r.Name, r.Procs[i], v)
			}
		}
	}
	out := FormatFigure(rows, 5, Sim)
	if !strings.Contains(out, "Figure 5") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

func TestFilterSpecs(t *testing.T) {
	suite := matgen.SmallSuite()
	got := FilterSpecs(suite, Figure6Matrices)
	if len(got) != 3 {
		t.Fatalf("filtered %d specs, want 3", len(got))
	}
	names := map[string]bool{}
	for _, s := range got {
		names[s.Name] = true
	}
	for _, want := range []string{"lns-s", "lnsp-s", "saylr-s"} {
		if !names[want] {
			t.Fatalf("missing %s in %v", want, names)
		}
	}
}

func TestAblationPostorder(t *testing.T) {
	rows, err := AblationPostorderTime(small(t)[:1], 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatAblation("postorder ablation", rows)
	if !strings.Contains(out, "postorder=on") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

func TestAblationAmalgamation(t *testing.T) {
	rows, err := AblationAmalgamation(small(t)[0], []int{1, 8, 32}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestAblationMapping pins the ablation's conclusion: the task-level
// schedule of the tables is no slower than either fixed mapping.
func TestAblationMapping(t *testing.T) {
	rows, err := AblationMapping(small(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Config != "mapping=task-level" {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows[1:] {
		if r.Value < rows[0].Value {
			t.Fatalf("%s (%g s) beats task-level scheduling (%g s)", r.Config, r.Value, rows[0].Value)
		}
	}
}

func TestTaskOwners2D(t *testing.T) {
	s, err := core.Analyze(small(t)[0].Gen(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph
	owners := taskOwners2D(g, 2, 2)
	for id, p := range owners {
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
	res, err := sched.Simulate(g, s.Costs, sched.Origin2000(4), sched.PanelWords(g, s.Costs), owners, sched.Perturb{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("2D simulation produced no schedule")
	}
	// Dependences respected, every task where the grid puts it.
	for id := range g.Succ {
		if res.Proc[id] != owners[id] {
			t.Fatalf("2D: task %d ran on %d, placed on %d", id, res.Proc[id], owners[id])
		}
		for _, s := range g.Succ[id] {
			if res.Start[s] < res.Finish[id]-1e-12 {
				t.Fatalf("2D: start of %d before finish of %d", s, id)
			}
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	rows, err := AblationOrdering(small(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var mindeg, natural float64
	for _, r := range rows {
		switch r.Config {
		case "ordering=mindeg":
			mindeg = r.Value
		case "ordering=natural":
			natural = r.Value
		}
	}
	if mindeg > natural {
		t.Fatalf("minimum degree fill %g worse than natural %g", mindeg, natural)
	}
}

func TestBlockUTCheck(t *testing.T) {
	rows, err := BlockUTCheck(small(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Value < 1 {
			t.Fatalf("%s: %g diagonal blocks", r.Name, r.Value)
		}
	}
}

func TestStructureBounds(t *testing.T) {
	rows, err := StructureBounds(small(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Dynamic > r.Static {
			t.Fatalf("%s: dynamic fill %d above static bound %d", r.Name, r.Dynamic, r.Static)
		}
		if r.Static > r.SuperLU {
			t.Fatalf("%s: static %d above SuperLU bound %d", r.Name, r.Static, r.SuperLU)
		}
		if r.StaticOver < 1 || r.SuperLUOver < r.StaticOver {
			t.Fatalf("%s: ratios wrong: %+v", r.Name, r)
		}
	}
	out := FormatBounds(rows)
	if !strings.Contains(out, "superlu") {
		t.Fatalf("format wrong:\n%s", out)
	}
}
