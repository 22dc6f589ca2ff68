package core

import (
	"runtime"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// analyzeAllocs returns the heap objects and bytes one serial Analyze of
// a allocates, averaged over a few runs after a warm-up that pays any
// once-per-process cost.
func analyzeAllocs(t testing.TB, a *sparse.CSC) (mallocs, bytes float64) {
	t.Helper()
	const runs = 5
	var before, after runtime.MemStats
	for i := -1; i < runs; i++ {
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		if _, err := Analyze(a, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestAnalyzeAllocCeiling pins what a serial Analyze costs the
// allocator on the small-suite stand-ins of the four workload matrices:
// mallocs per column and bytes per entry of Ā, each at the value
// measured when Analyze stopped writing the scalar structure more than
// once (no relabeled copy after the postorder, no column view of Ū),
// plus 25 % headroom. Before that change the same matrices read 68–103
// bytes per entry, and before the structural stages were rewritten to
// allocate per stage instead of per step 47–54 mallocs per column and
// 149–256 bytes per entry; a relabel, a transpose or a per-step
// allocation creeping back into a stage shows here long before it shows
// in seconds. Both were re-measured when the layout's per-column panel
// row lists gave way to the solve's one row plan (mallocs per column
// 2.40–1.58 → 2.12–1.42, bytes per entry within 1 %), and every ceiling
// above the new measure plus 25 % came down to it.
func TestAnalyzeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	ceilings := map[string]struct{ perColumn, perEntry float64 }{
		"sherman3-s": {2.53, 94.6}, // measured 2.02, 75.7
		"sherman5-s": {1.78, 57},   // 1.42, 45.7
		"lnsp-s":     {2.65, 99},   // 2.12, 79.2
		"orsreg-s":   {2.11, 55},   // 1.69, 44.4
	}
	for _, sp := range matgen.SmallSuite() {
		c, ok := ceilings[sp.Name]
		if !ok {
			continue
		}
		a := sp.Gen()
		s, err := Analyze(a, nil)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		mallocs, bytes := analyzeAllocs(t, a)
		perColumn, perEntry := mallocs/float64(s.N), bytes/float64(s.Stats.NNZFactors)
		t.Logf("%s: n %d, |Ā| %d: %.2f mallocs per column, %.1f bytes per entry of Ā", sp.Name, s.N, s.Stats.NNZFactors, perColumn, perEntry)
		if perColumn > c.perColumn {
			t.Errorf("%s: %.2f mallocs per column, ceiling %.2f", sp.Name, perColumn, c.perColumn)
		}
		if perEntry > c.perEntry {
			t.Errorf("%s: %.1f bytes allocated per entry of Ā, ceiling %.1f", sp.Name, perEntry, c.perEntry)
		}
	}
}
