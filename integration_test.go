package sparselu

// Full-size integration tests: the complete pipeline on the paper's
// actual matrix orders. Skipped under -short; the default `go test`
// run exercises them (a few seconds).

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/matgen"
)

// TestFullSizeOrsreg1 runs the complete pipeline on the full-size
// orsreg1 stand-in (n = 2205): analyze, factor in parallel, solve,
// refine, and check every reported statistic for plausibility.
func TestFullSizeOrsreg1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size integration test")
	}
	m := WrapCSC(matgen.Orsreg1())
	if m.Order() != 2205 {
		t.Fatalf("order %d", m.Order())
	}
	opts := DefaultOptions()
	opts.Workers = 4
	a, err := Analyze(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.FillRatio < 5 || st.FillRatio > 100 {
		t.Fatalf("fill ratio %g implausible", st.FillRatio)
	}
	if st.Supernodes < 100 || st.Supernodes > st.Order {
		t.Fatalf("supernodes %d implausible", st.Supernodes)
	}
	f, err := a.Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.Singular() {
		t.Fatal("orsreg1 should be nonsingular")
	}
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, m.Order())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, berr, _, err := f.SolveRefined(b, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if berr > 1e-12 {
		t.Fatalf("backward error %g", berr)
	}
	if r := Residual(m, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
	if g := f.PivotGrowth(); g <= 0 || g > 1e6 {
		t.Fatalf("pivot growth %g", g)
	}
}

// TestNearSingularPolicies pins the public robustness contract on a
// near-singular system (one exactly zero column, two columns scaled to
// ~1e-13·‖A‖∞): under PivotFail the solve reports ErrSingular with the
// failing column attached, while PivotPerturb plus a few refinement
// steps recovers a solution to near machine precision.
func TestNearSingularPolicies(t *testing.T) {
	a, zeroCol, _ := matgen.NearSingular(16, 16, 7)
	m := WrapCSC(a)
	n := m.Order()
	rng := rand.New(rand.NewSource(3))
	xtrue := make([]float64, n)
	for i := range xtrue {
		xtrue[i] = 1 + rng.Float64()
	}
	b := make([]float64, n)
	a.MulVec(xtrue, b)

	// Strict policy: factorization completes, Singular is set, and the
	// solve fails with the structured error naming the zero column.
	fail, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !fail.Singular() {
		t.Fatal("PivotFail: singular matrix not flagged")
	}
	if got := fail.SingularColumn(); got != zeroCol {
		t.Fatalf("PivotFail: singular column %d, want %d", got, zeroCol)
	}
	if _, err := fail.Solve(b); !errors.Is(err, ErrSingular) {
		t.Fatalf("PivotFail: Solve err = %v, want ErrSingular", err)
	}
	var se *SingularError
	if _, err := fail.Solve(b); !errors.As(err, &se) || se.Col != zeroCol {
		t.Fatalf("PivotFail: Solve err = %v, want *SingularError{Col: %d}", err, zeroCol)
	}

	// Perturbation policy: the same system factors cleanly, reports the
	// touched columns, and iterative refinement restores the accuracy.
	opts := DefaultOptions()
	opts.PivotPolicy = PivotPerturb
	opts.Workers = 4
	pert, err := Factorize(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pert.Singular() {
		t.Fatal("PivotPerturb: factorization still flagged singular")
	}
	if pert.PivotPerturbations() == 0 {
		t.Fatal("PivotPerturb: no perturbations recorded on a singular system")
	}
	cols := pert.PerturbedColumns()
	found := false
	for _, c := range cols {
		if c == zeroCol {
			found = true
		}
	}
	if !found {
		t.Fatalf("PivotPerturb: perturbed columns %v miss the zero column %d", cols, zeroCol)
	}
	_, berr, _, err := pert.SolveRefined(b, 3, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if berr > 1e-10 {
		t.Fatalf("PivotPerturb: backward error %g after refinement, want ≤ 1e-10", berr)
	}
}

// TestFullSizePostorderingEffect verifies the Table 3 effect at full
// scale: postordering must reduce the supernode count on every matrix
// of the suite that fits a quick run.
func TestFullSizePostorderingEffect(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size integration test")
	}
	m := WrapCSC(matgen.Lnsp3937())
	with, err := Analyze(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	noPO := DefaultOptions()
	noPO.Postorder = false
	without, err := Analyze(m, noPO)
	if err != nil {
		t.Fatal(err)
	}
	sn, snpo := without.Stats().Supernodes, with.Stats().Supernodes
	if snpo >= sn {
		t.Fatalf("postordering did not reduce supernodes at full scale: %d → %d", sn, snpo)
	}
	// Theorem 3 at full scale: same fill either way.
	if with.Stats().FactorNNZ != without.Stats().FactorNNZ {
		t.Fatalf("postordering changed |Ā|: %d vs %d", with.Stats().FactorNNZ, without.Stats().FactorNNZ)
	}
}
