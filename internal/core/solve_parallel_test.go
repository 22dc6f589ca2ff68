package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
)

// The parallel triangular-solve engine promises bitwise-identical
// results to the serial sweeps at every worker count. The references
// below repeat the solve drivers' pack/scale/unpack steps around the
// plain serial column sweeps (solveInPlace and friends), so the only
// difference under test is the level-scheduled execution itself.

func serialSolveRef(f *Factorization, b []float64) []float64 {
	n := f.S.N
	y := make([]float64, n)
	for i, v := range b {
		y[f.S.SolvePerm[i]] = v
	}
	if f.rscale != nil {
		for i := range y {
			y[i] *= f.rscale[i]
		}
	}
	f.solveInPlace(y)
	if f.cscale != nil {
		for i := range y {
			y[i] *= f.cscale[i]
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = y[f.S.SymPerm[i]]
	}
	return x
}

func serialSolveTransposeRef(f *Factorization, b []float64) []float64 {
	n := f.S.N
	y := make([]float64, n)
	for i, v := range b {
		y[f.S.SymPerm[i]] = v
	}
	if f.cscale != nil {
		for i := range y {
			y[i] *= f.cscale[i]
		}
	}
	f.solveTransposeInPlace(y)
	if f.rscale != nil {
		for i := range y {
			y[i] *= f.rscale[i]
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = y[f.S.SolvePerm[i]]
	}
	return x
}

func serialSolveManyRef(f *Factorization, bs [][]float64) [][]float64 {
	n := f.S.N
	nrhs := len(bs)
	y := make([]float64, n*nrhs)
	for r, b := range bs {
		for i, v := range b {
			y[f.S.SolvePerm[i]*nrhs+r] = v
		}
	}
	if f.rscale != nil {
		for i := 0; i < n; i++ {
			s := f.rscale[i]
			for j := i * nrhs; j < (i+1)*nrhs; j++ {
				y[j] *= s
			}
		}
	}
	f.solveManySerial(y, nrhs)
	out := make([][]float64, nrhs)
	for r := range out {
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			p := f.S.SymPerm[i]
			if f.cscale != nil {
				x[i] = y[p*nrhs+r] * f.cscale[p]
			} else {
				x[i] = y[p*nrhs+r]
			}
		}
		out[r] = x
	}
	return out
}

// diffBits reports the first elementwise bit difference between two
// vectors (NaNs must match bit for bit too).
func diffBits(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %x (%g), want %x (%g) — parallel solve is not bitwise deterministic",
				ctx, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

var solveWorkerCounts = []int{1, 2, 4, 8}

// checkSolveBitwise factors a, then checks Solve, SolveTranspose and
// SolveMany against the serial references at every worker count.
func checkSolveBitwise(t *testing.T, name string, f *Factorization, rng *rand.Rand) {
	t.Helper()
	n := f.S.N
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	bs := make([][]float64, 5)
	for r := range bs {
		bs[r] = make([]float64, n)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	wantX := serialSolveRef(f, b)
	wantXT := serialSolveTransposeRef(f, b)
	wantXS := serialSolveManyRef(f, bs)
	for _, p := range solveWorkerCounts {
		// SolveTranspose has no per-call override, so retune the
		// factorization's own frozen options.
		f.nopts.SolveWorkers = p
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("%s P=%d: %v", name, p, err)
		}
		diffBits(t, fmt.Sprintf("%s Solve P=%d", name, p), x, wantX)
		xt, err := f.SolveTranspose(b)
		if err != nil {
			t.Fatalf("%s P=%d: %v", name, p, err)
		}
		diffBits(t, fmt.Sprintf("%s SolveTranspose P=%d", name, p), xt, wantXT)
		xs, err := f.SolveMany(bs)
		if err != nil {
			t.Fatalf("%s P=%d: %v", name, p, err)
		}
		for r := range xs {
			diffBits(t, fmt.Sprintf("%s SolveMany[%d] P=%d", name, r, p), xs[r], wantXS[r])
		}
	}
}

// TestSolveBitwiseAcrossWorkers pins the engine's core contract on the
// whole small suite: Solve, SolveTranspose and SolveMany at P = 1, 2,
// 4, 8 are bitwise identical to the serial sweeps.
func TestSolveBitwiseAcrossWorkers(t *testing.T) {
	for _, spec := range matgen.SmallSuite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(401))
			a := spec.Gen()
			opts := DefaultOptions()
			opts.Workers = 2
			f, err := Factorize(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkSolveBitwise(t, spec.Name, f, rng)
		})
	}
}

// TestSolveBitwiseEquilibrated repeats the contract with row/column
// scaling in the loop (the scale passes run inside the solve drivers).
func TestSolveBitwiseEquilibrated(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	a := matgen.SmallSuite()[1].Gen()
	opts := DefaultOptions()
	opts.Equilibrate = true
	f, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSolveBitwise(t, "equilibrated", f, rng)
}

// TestSolveBitwisePoisonNaN checks non-finite propagation stays
// deterministic: with NaN and ±Inf injected into the right-hand side
// and into one factor block column, the parallel sweeps reproduce the
// serial NaN pattern bit for bit at every worker count.
func TestSolveBitwisePoisonNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	a := matgen.SmallSuite()[0].Gen()
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := f.S.N
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b[0] = math.NaN()
	b[n/2] = math.Inf(1)
	b[n-1] = math.Inf(-1)
	// Poison a mid-structure block column of the factors too, the way
	// a PoisonNaN fault would corrupt it.
	pc := &f.cols[len(f.cols)/2]
	for i := 0; i < len(pc.data); i += 7 {
		pc.data[i] = math.NaN()
	}
	wantX := serialSolveRef(f, b)
	wantXT := serialSolveTransposeRef(f, b)
	for _, p := range solveWorkerCounts {
		f.nopts.SolveWorkers = p
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		diffBits(t, fmt.Sprintf("poisoned Solve P=%d", p), x, wantX)
		xt, err := f.SolveTranspose(b)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		diffBits(t, fmt.Sprintf("poisoned SolveTranspose P=%d", p), xt, wantXT)
	}
}

// TestSolveBitwiseNearSingularPerturb runs the contract on a perturbed
// near-singular factorization, where the static pivot perturbations
// make the triangular factors maximally ill-scaled.
func TestSolveBitwiseNearSingularPerturb(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	a, _, _ := matgen.NearSingular(8, 10, 21)
	opts := DefaultOptions()
	opts.PivotPolicy = PivotPerturb
	f, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.PivotPerturbations() == 0 {
		t.Fatal("expected pivot perturbations on the near-singular system")
	}
	checkSolveBitwise(t, "near-singular", f, rng)
}
