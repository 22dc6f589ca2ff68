package core

import (
	"testing"

	"repro/internal/matgen"
)

// TestSolveZeroAllocs is the zero-allocation proof of the solves: once
// the pooled SolveWorkspace is warm, Solve, SolveTranspose and SolveMany
// allocate exactly the result slices they hand back — one vector per
// right-hand side, plus the outer slice of SolveMany — and nothing per
// block column or per sweep. testing.AllocsPerRun measures on one P, so
// the workspace pool's per-P cache always hits.
func TestSolveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	const (
		nrhs  = 16
		iters = 10
	)
	a := matgen.Sherman5()
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := f.S.N
	if nb := f.S.BlockSym.N; nb < 100 {
		t.Fatalf("only %d block columns; matrix too small for the test to mean anything", nb)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	bs := make([][]float64, nrhs)
	for r := range bs {
		bs[r] = b
	}
	mustSolve := func(fn func() error) func() {
		return func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		// budget is the per-iteration allowance: the result slices the
		// API must hand back.
		budget float64
		solve  func()
	}{
		{"Solve", 1, mustSolve(func() error { _, err := f.Solve(b); return err })},
		{"SolveTranspose", 1, mustSolve(func() error { _, err := f.SolveTranspose(b); return err })},
		{"SolveMany2", 1 + 2, mustSolve(func() error { _, err := f.SolveMany(bs[:2]); return err })},
		{"SolveMany16", 1 + nrhs, mustSolve(func() error { _, err := f.SolveMany(bs); return err })},
	} {
		// Warm-up fills the workspace pool and the runtime's caches.
		tc.solve()
		perIter := testing.AllocsPerRun(iters, tc.solve)
		t.Logf("%s: %.0f allocs/solve (budget %.0f)", tc.name, perIter, tc.budget)
		if perIter > tc.budget {
			t.Errorf("%s: %.0f allocs/solve exceeds the %.0f budget — the solve hot path allocates beyond its results",
				tc.name, perIter, tc.budget)
		}
	}
}
