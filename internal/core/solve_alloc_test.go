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

// TestSolveRefinedWithAllocs pins that a refined solve given ‖A‖∞
// allocates only its vectors: the result of every solve it runs (the
// first and one per refinement step) and the one residual vector the
// steps share. Computing the norm inside would add the n-vector of row
// sums sparse.(*CSC).NormInf allocates.
func TestSolveRefinedWithAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	a := matgen.Sherman5()
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, f.S.N)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	// A tolerance no iterate meets runs steps until one fails to improve.
	const tol = 1e-300
	anorm := a.NormInf()
	_, _, steps, err := f.SolveRefinedWith(a, anorm, b, 3, tol, nil)
	if err != nil || steps == 0 {
		t.Fatalf("%d refinement steps (%v): the test needs at least one", steps, err)
	}
	budget := float64(1 + steps + 1)
	perIter := testing.AllocsPerRun(10, func() {
		if _, _, _, err := f.SolveRefinedWith(a, anorm, b, 3, tol, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d refinement steps: %.0f allocs/call (budget %.0f)", steps, perIter, budget)
	if perIter > budget {
		t.Errorf("%.0f allocs per refined solve of %d steps, budget %.0f: it allocates beyond its solves and residual",
			perIter, steps, budget)
	}
}
