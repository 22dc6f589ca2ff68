package core

import (
	"runtime"
	"testing"

	"repro/internal/blas"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/taskgraph"
)

// TestPackPlanMatchesDispatch pins the packing plan Analyze records to
// the dispatch of update: panel K gets a window in the packed slab
// exactly when the Schur product of some stored U(K,J) — K's planned
// rows times U(K,J) — has a shape blas.PackedShape sends down the packed
// path, so every such product reads a packed panel and no panel is
// packed for nothing; and the window holds blas.PanelSize ints of the
// panel's planned rows. It runs on the four workload matrices and on
// every family of matgen.GenPatterns.
func TestPackPlanMatchesDispatch(t *testing.T) {
	type input struct {
		name string
		a    *sparse.CSC
	}
	var inputs []input
	for _, w := range []struct {
		name string
		gen  func() *sparse.CSC
	}{
		{"sherman5", matgen.Sherman5}, {"sherman3", matgen.Sherman3},
		{"orsreg1", matgen.Orsreg1}, {"lnsp3937", matgen.Lnsp3937},
	} {
		inputs = append(inputs, input{w.name, w.gen()})
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, pc := range matgen.GenPatterns(seed) {
			inputs = append(inputs, input{pc.Name, pc.A})
		}
	}
	packedAnywhere := false
	for _, in := range inputs {
		s, err := Analyze(in.a, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		need := make([]bool, len(s.layout))
		updates, packed := 0, 0
		for _, task := range s.Graph.Tasks {
			if task.Kind != taskgraph.Update {
				continue
			}
			updates++
			colK, colJ := &s.layout[task.K], &s.layout[task.J]
			if blas.PackedShape(len(colK.plan), colJ.width, colK.width) {
				need[task.K] = true
				packed++
			}
		}
		start := 0
		for k := range s.layout {
			c := &s.layout[k]
			want := 0
			if need[k] {
				_, want = blas.PanelSize(len(c.plan), c.width)
			}
			if got := c.packEnd - start; got != want {
				t.Fatalf("%s: panel %d has a window of %d ints, want %d (packed runs read it: %v)", in.name, k, got, want, need[k])
			}
			start = c.packEnd
		}
		packedAnywhere = packedAnywhere || packed > 0
		t.Logf("%s: %d of %d updates packed, slab of %d ints", in.name, packed, updates, s.packLen())
	}
	if !packedAnywhere {
		t.Fatal("no update takes the packed path: the plan is never exercised")
	}
}

// TestFactorizeRecyclesPackSlab pins the packed slab's lifetime: after
// one warm-up, a serial factorization of sherman5 allocates no more than
// its value slab plus 256 KB — a packed slab made per call (some 6 MB)
// would not fit — and the slab is back on the freelist when
// FactorizeWithOpts returns, so the Factorization holds none.
func TestFactorizeRecyclesPackSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	a := matgen.Sherman5()
	s, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.packLen() == 0 {
		t.Fatal("sherman5 packs no panel: the test means nothing")
	}
	if _, err := FactorizeWithOpts(s, a, nil); err != nil {
		t.Fatal(err)
	}
	values := 8 * uint64(s.SlabEntries())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := FactorizeWithOpts(s, a, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("factorization allocated %d B: value slab %d B, packed slab %d B", got, values, 36*s.packLen())
	if got > values+256<<10 {
		t.Errorf("factorization allocated %d B, more than the value slab %d B plus 256 KB", got, values)
	}
	if f.pack != nil {
		t.Error("the Factorization still holds its packed slab")
	}
	packMu.Lock()
	defer packMu.Unlock()
	for _, p := range packFree {
		if len(p.ints) == s.packLen() {
			return
		}
	}
	t.Errorf("no slab of %d ints on the freelist after the factorization", s.packLen())
}
