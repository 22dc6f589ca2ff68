package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// sameAnalysis reports whether two analyses of a's pattern agree
// structurally: on the fingerprint of what factorizations read, wall
// clock excluded, and on the golden structure and graph hashes, which
// cover the rest of a Symbolic and the scalar Ā and eforest that
// Symbolic.Scalar rebuilds.
func sameAnalysis(t testing.TB, x, y *Symbolic, a *sparse.CSC) bool {
	t.Helper()
	fx, fy := fingerprint(x), fingerprint(y)
	fx.stats.AnalyzeSeconds, fy.stats.AnalyzeSeconds = 0, 0
	return fx.equal(&fy) && structureHash(t, x, a) == structureHash(t, y, a) && graphHash(x) == graphHash(y)
}

// saltNaN poisons every value of a copy of a with NaN. The analysis is
// purely structural, so the result must not change.
func saltNaN(a *sparse.CSC) *sparse.CSC {
	out := &sparse.CSC{NRows: a.NRows, NCols: a.NCols, ColPtr: a.ColPtr, RowInd: a.RowInd}
	out.Val = make([]float64, len(a.Val))
	for i := range out.Val {
		out.Val[i] = math.NaN()
	}
	return out
}

// TestAnalyzeNaNSaltParity pins that the analysis reads the pattern
// only: over the whole small suite, Analyze of NaN-salted values
// produces a Symbolic structurally equal to the clean one. Runs under
// -race in the chaos stage.
func TestAnalyzeNaNSaltParity(t *testing.T) {
	for _, spec := range matgen.SmallSuite() {
		a := spec.Gen()
		ref, err := Analyze(a, nil)
		if err != nil {
			t.Fatalf("%s: analyze: %v", spec.Name, err)
		}
		s, err := Analyze(saltNaN(a), nil)
		if err != nil {
			t.Fatalf("%s: analyze salted: %v", spec.Name, err)
		}
		if !sameAnalysis(t, ref, s, a) {
			t.Fatalf("%s: NaN-salted Symbolic differs", spec.Name)
		}
	}
}

// TestAnalyzeStageBreakdown checks the Trace-gated per-stage timing.
func TestAnalyzeStageBreakdown(t *testing.T) {
	a := matgen.SmallSuite()[0].Gen()
	s, err := Analyze(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.AnalyzeSeconds <= 0 {
		t.Fatalf("AnalyzeSeconds = %v, want > 0", s.Stats.AnalyzeSeconds)
	}
	if len(s.StageSeconds) != 0 {
		t.Fatalf("StageSeconds recorded without Trace: %v", s.StageSeconds)
	}
	opts := DefaultOptions()
	opts.Trace = trace.New(1)
	s, err = Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The cuts are the per-layer metrics' of the benchmark of record:
	// what a stage is charged here is what its layer is charged there.
	want := []string{"transversal", "ordering", "symbolic", "postorder", "supernodes",
		"block symbolic", "task graph", "solve schedules", "stats"}
	if len(s.StageSeconds) != len(want) {
		t.Fatalf("StageSeconds has %d entries, want %d: %v", len(s.StageSeconds), len(want), s.StageSeconds)
	}
	sum := 0.0
	for i, st := range s.StageSeconds {
		if st.Name != want[i] {
			t.Fatalf("stage %d is %q, want %q: %v", i, st.Name, want[i], s.StageSeconds)
		}
		if st.Seconds < 0 {
			t.Fatalf("stage %q took %v s", st.Name, st.Seconds)
		}
		sum += st.Seconds
	}
	if sum > s.Stats.AnalyzeSeconds {
		t.Fatalf("stages sum to %v s, more than the call's %v s", sum, s.Stats.AnalyzeSeconds)
	}
}

// TestReanalyzeIdenticalFastPath pins the identical-pattern contract:
// Reanalyze returns the previous Symbolic itself, and does so at least
// 10× faster than a full Analyze, on every small-suite matrix.
func TestReanalyzeIdenticalFastPath(t *testing.T) {
	for _, spec := range matgen.SmallSuite() {
		a := spec.Gen()
		sw := trace.NewStopwatch()
		prev, err := Analyze(a, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		full := sw.Seconds()

		sw = trace.NewStopwatch()
		got, level, err := Reanalyze(prev, a)
		re := sw.Seconds()
		if err != nil {
			t.Fatalf("%s: reanalyze: %v", spec.Name, err)
		}
		if level != ReuseFull {
			t.Fatalf("%s: reuse level %v, want full", spec.Name, level)
		}
		if got != prev {
			t.Fatalf("%s: identical-pattern Reanalyze did not return the cached Symbolic", spec.Name)
		}
		if re*10 > full {
			t.Errorf("%s: Reanalyze took %.3gs vs full %.3gs — less than 10× faster", spec.Name, re, full)
		}
	}
}

// The kinds of pattern edit TestReanalyzeEditSequences draws.
const (
	editLocalDrop     = iota // one to three off-diagonal entries of a window of eight columns go
	editScatteredDrop        // about 0.5 % of the off-diagonal entries go, across the whole matrix
	editAddNeighbours        // one to three entries appear, each a row of the neighbouring column
	editKinds
)

// editPattern returns a copy of a under one random edit of the given
// kind that changes its pattern. Values are kept; added entries get 1.
func editPattern(a *sparse.CSC, kind int, rng *rand.Rand) *sparse.CSC {
	n := a.NCols
	for {
		drop := make([]bool, a.NNZ())
		t := sparse.NewTriplet(n, n)
		switch kind {
		case editLocalDrop:
			lo := rng.Intn(n)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				j := min(lo+rng.Intn(8), n-1)
				if cnt := a.ColPtr[j+1] - a.ColPtr[j]; cnt > 0 {
					p := a.ColPtr[j] + rng.Intn(cnt)
					drop[p] = a.RowInd[p] != j
				}
			}
		case editScatteredDrop:
			for j := 0; j < n; j++ {
				for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
					drop[p] = a.RowInd[p] != j && rng.Float64() < 0.005
				}
			}
		case editAddNeighbours:
			for k := 1 + rng.Intn(3); k > 0; k-- {
				j := rng.Intn(n)
				nb := min(j+1, n-1)
				if rng.Intn(2) == 0 {
					nb = max(j-1, 0)
				}
				if rows, _ := a.Col(nb); len(rows) > 0 {
					t.Add(rows[rng.Intn(len(rows))], j, 1)
				}
			}
		}
		for j := 0; j < n; j++ {
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				if !drop[p] {
					t.Add(a.RowInd[p], j, a.Val[p])
				}
			}
		}
		if b := t.ToCSC(); !b.SamePattern(a) {
			return b
		}
	}
}

// TestReanalyzeEditSequences chains Reanalyze over eight seeded pattern
// edits of every small-suite matrix. Each edit changes the pattern, so
// Reanalyze must run a full analysis (ReuseNone) whose structure is a
// fresh Analyze's of the edited matrix; an identical copy of the edited
// matrix must then return that analysis itself (ReuseFull).
func TestReanalyzeEditSequences(t *testing.T) {
	const edits = 8
	rng := rand.New(rand.NewSource(28))
	for _, spec := range matgen.SmallSuite() {
		cur := spec.Gen()
		prev, err := Analyze(cur, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for e := 0; e < edits; e++ {
			next := editPattern(cur, e%editKinds, rng)
			got, level, err := Reanalyze(prev, next)
			if err != nil {
				t.Fatalf("%s edit %d: reanalyze: %v", spec.Name, e, err)
			}
			fresh, err := Analyze(next, nil)
			if err != nil {
				t.Fatalf("%s edit %d: analyze: %v", spec.Name, e, err)
			}
			if level != ReuseNone {
				t.Fatalf("%s edit %d: reuse level %v, want none", spec.Name, e, level)
			}
			if !sameAnalysis(t, got, fresh, next) {
				t.Fatalf("%s edit %d: Reanalyze differs from a fresh Analyze", spec.Name, e)
			}
			same, level, err := Reanalyze(got, next.PermuteRows(sparse.Identity(next.NRows)))
			if err != nil || level != ReuseFull || same != got {
				t.Fatalf("%s edit %d: identical copy: level %v, err %v, same pointer %v", spec.Name, e, level, err, same == got)
			}
			prev, cur = got, next
		}
	}
}
