package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	sparselu "repro"
)

// inTempDir runs the test from a scratch directory, so the span files a
// traced run writes do not land in the source tree.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestMatchesProgram pins BENCHMARK.json to the program's own
// tables: same workloads, same metric names in the same groups, same
// units, names the driver accepts, bounds within its limit.
func TestManifestMatchesProgram(t *testing.T) {
	man := loadManifest(t)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(group string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", group, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: manifest %s (%s), program %s (%s)", group, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s: %q (%q) is not a name and unit the driver accepts", group, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has direction %q", group, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: %s has bound %v", group, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
}

// TestSmokeEveryWorkload runs every workload twice in the smoke shape
// with the traced pass on, and checks what a run promises: no failed
// operation, every metric of the manifest present once with a finite
// value and its unit, identical inputs and identical structural counts
// on both repetitions.
func TestSmokeEveryWorkload(t *testing.T) {
	man := loadManifest(t)
	inTempDir(t)
	for _, w := range man.Workloads {
		var reps [2]*report
		for i := range reps {
			rep, err := run(config{workload: w.Name, seed: 1, smoke: true, trace: true})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed", w.Name, rep.Failed, rep.Attempted)
			}
			for _, g := range []struct {
				defs []manifestMetric
				vals map[string]value
			}{{man.EndToEnd, rep.EndToEnd}, {man.PerLayer, rep.PerLayer}} {
				if len(g.vals) != len(g.defs) {
					t.Errorf("%s: %d metrics printed, manifest lists %d", w.Name, len(g.vals), len(g.defs))
				}
				for _, m := range g.defs {
					v, ok := g.vals[m.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
						t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", w.Name, m.Name, v, ok, m.Unit)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(spanDir, w.Name+".spans.json")); err != nil {
				t.Errorf("%s: no span file: %v", w.Name, err)
			}
			reps[i] = rep
		}
		if reps[0].InputHash != reps[1].InputHash {
			t.Errorf("%s: seed 1 gave inputs %s, then %s", w.Name, reps[0].InputHash, reps[1].InputHash)
		}
		for _, d := range perLayer {
			if a, b := reps[0].PerLayer[d.name].Value, reps[1].PerLayer[d.name].Value; d.exact && a != b {
				t.Errorf("%s: %s was %v, then %v", w.Name, d.name, a, b)
			}
		}
	}
}

// TestSeedChangesInputs checks the other half of seeding: another seed,
// other inputs.
func TestSeedChangesInputs(t *testing.T) {
	w, err := findWorkload("fresh_patterns")
	if err != nil {
		t.Fatal(err)
	}
	a, err := genInputs(w, 1, true, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(w, 2, true, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash == b.hash {
		t.Fatalf("seeds 1 and 2 gave the same inputs %s", a.hash)
	}
	if a.rounds[0].NNZ() == a.edited[0].NNZ() {
		t.Fatal("the reanalyze edit dropped nothing")
	}
}

// TestCorruptedSolutionCountsAsFailed feeds the checkers a solution
// that is off in one entry, a reply whose reported residual is too
// large, and a reply of the wrong shape.
func TestCorruptedSolutionCountsAsFailed(t *testing.T) {
	w, err := findWorkload("refactor_blocky")
	if err != nil {
		t.Fatal(err)
	}
	in, err := genInputs(w, 1, true, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, b := in.rounds[0], in.rhs[0]
	f, err := sparselu.Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	tl.solved(m, x, b, nil)
	tl.checkReply(m, [][]float64{x}, [][]float64{b}, []float64{1e-16})
	if tl.attempted != 2 || tl.failed != 0 {
		t.Fatalf("good solution: %d of %d failed", tl.failed, tl.attempted)
	}
	bad := append([]float64(nil), x...)
	bad[len(bad)/2] += 1e-3
	tl.solved(m, bad, b, nil)
	tl.checkReply(m, [][]float64{bad}, [][]float64{b}, []float64{1e-16})
	tl.checkReply(m, [][]float64{x}, [][]float64{b}, []float64{1e-6})
	tl.checkReply(m, nil, [][]float64{b}, nil)
	bad[0] = math.NaN()
	tl.solved(m, bad, b, nil)
	if tl.attempted != 7 || tl.failed != 5 {
		t.Fatalf("after five bad results: %d of %d failed, want 5 of 7", tl.failed, tl.attempted)
	}
}

// TestCompareSets builds two sets of reports by hand and checks the
// comparator's verdicts: within bounds, a bound breached in either
// direction, a structural per-layer number that differs between runs of
// one seed, and a failed operation.
func TestCompareSets(t *testing.T) {
	man := loadManifest(t)
	manifestPath, err := filepath.Abs(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(factor, flops float64) *report {
		r := &report{Workload: man.Workloads[0].Name, Seed: 1, Attempted: 10,
			EndToEnd: map[string]value{}, PerLayer: map[string]value{}}
		for _, m := range man.EndToEnd {
			r.EndToEnd[m.Name] = value{Value: 1, Unit: m.Unit}
		}
		r.EndToEnd["factor_s"] = value{Value: factor, Unit: "s"}
		r.PerLayer["taskgraph.total_flops"] = value{Value: flops, Unit: "flop"}
		return r
	}
	verdict := func(a, b *report) (bool, string) {
		dirA, dirB := t.TempDir(), t.TempDir()
		// Each set is one untraced run, which carries the timings, and
		// one traced run, which carries the counts.
		for dir, r := range map[string]*report{dirA: a, dirB: b} {
			untraced := *r
			untraced.PerLayer = nil
			if err := untraced.store(dir, false); err != nil {
				t.Fatal(err)
			}
			if err := r.store(dir, true); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		ok, err := compareSets(&out, manifestPath, dirA, dirB)
		if err != nil {
			t.Fatal(err)
		}
		return ok, out.String()
	}
	if ok, out := verdict(mk(1, 100), mk(1.01, 100)); !ok {
		t.Errorf("1 %% worse was rejected:\n%s", out)
	}
	if ok, out := verdict(mk(1, 100), mk(2, 100)); ok || !strings.Contains(out, "BREACH") {
		t.Errorf("2x worse was accepted:\n%s", out)
	}
	if ok, out := verdict(mk(2, 100), mk(1, 100)); ok || !strings.Contains(out, "B better") {
		t.Errorf("two sets that differ 2x were said to agree:\n%s", out)
	}
	if ok, out := verdict(mk(1, 100), mk(1, 101)); ok || !strings.Contains(out, "DIFFERS") {
		t.Errorf("a differing flop count was accepted:\n%s", out)
	}
	failed := mk(1, 100)
	failed.Failed = 1
	if ok, _ := verdict(mk(1, 100), failed); ok {
		t.Error("a run with a failed operation was accepted")
	}
}
