package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestSolveTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(50)
		a := randomSystem(n, 0.1, rng)
		opts := DefaultOptions()
		opts.Workers = 1 + rng.Intn(3)
		f, err := Factorize(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// b = Aᵀ·x, recover x.
		b := make([]float64, n)
		a.MulVecT(x, b)
		got, err := f.SolveTranspose(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], x[i])
			}
		}
	}
}

func TestSolveTransposeMatchesTransposedFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	a := randomSystem(35, 0.12, rng)
	b := make([]float64, 35)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := f.SolveTranspose(b)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Factorize(a.Transpose(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := ft.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x2[i])) {
			t.Fatalf("x[%d]: transpose-solve %g vs factor-of-transpose %g", i, x1[i], x2[i])
		}
	}
}

func TestSolveTransposeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	a := randomSystem(10, 0.2, rng)
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveTranspose(make([]float64, 9)); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
}

func TestSolveRefined(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	a := randomSystem(40, 0.1, rng)
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, berr, steps, err := f.SolveRefined(a, b, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if berr > 1e-13 {
		t.Fatalf("refined backward error %g", berr)
	}
	if steps > 3 {
		t.Fatalf("steps = %d", steps)
	}
	if got := Residual(a, x, b); got > 2*berr+1e-16 {
		t.Fatalf("reported berr %g, recomputed %g", berr, got)
	}
}

// TestSolveRefinedReportsItsIterate requires the backward error
// SolveRefined reports to be Residual of the x it returns, bit for bit,
// on badly scaled systems with tiny entries, where a refinement step
// can make the iterate worse: the step must then be dropped, not
// returned beside the better iterate's error.
func TestSolveRefinedReportsItsIterate(t *testing.T) {
	for _, sp := range matgen.SmallSuite() {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := columnScaled(sp.Gen(), rng)
			for k := range a.Val {
				if rng.Intn(10) == 0 {
					a.Val[k] *= 1e-12
				}
			}
			opts := DefaultOptions()
			opts.PivotPolicy = PivotPerturb
			f, err := Factorize(a, opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.Name, seed, err)
			}
			b := randomRHS(rng, 1, a.NCols)[0]
			x, berr, _, err := f.SolveRefined(a, b, 5, 1e-300)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.Name, seed, err)
			}
			if got := Residual(a, x, b); got != berr {
				t.Errorf("%s seed %d: reported backward error %g, the returned x has %g", sp.Name, seed, berr, got)
			}
		}
	}
}

func TestPivotGrowthModest(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	a := randomSystem(40, 0.1, rng)
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := f.PivotGrowth(a)
	// Partial pivoting on a diagonally dominant matrix keeps growth
	// near 1; anything above 100 means broken bookkeeping.
	if g <= 0 || g > 100 {
		t.Fatalf("pivot growth %g out of range", g)
	}
	if g := f.PivotGrowth(randomSystem(39, 0.1, rng)); !math.IsNaN(g) {
		t.Fatalf("pivot growth against a matrix of the wrong order = %g, want NaN", g)
	}
}

func TestLogDetMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(25)
		a := randomSystem(n, 0.15, rng)
		f, err := Factorize(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		sign, logAbs := f.LogDet()

		// Dense reference determinant via LU.
		d := a.ToDense()
		ipiv := make([]int, n)
		if err := blas.Dgetrf(n, n, d, n, ipiv); err != nil {
			t.Fatal(err)
		}
		wantSign := 1.0
		wantLog := 0.0
		for i := 0; i < n; i++ {
			if ipiv[i] != i {
				wantSign = -wantSign
			}
			v := d[i*n+i]
			if v < 0 {
				wantSign = -wantSign
			}
			wantLog += math.Log(math.Abs(v))
		}
		if sign != wantSign {
			t.Fatalf("trial %d: sign %g, want %g", trial, sign, wantSign)
		}
		if math.Abs(logAbs-wantLog) > 1e-8*(1+math.Abs(wantLog)) {
			t.Fatalf("trial %d: logdet %g, want %g", trial, logAbs, wantLog)
		}
	}
}

func TestLogDetSingular(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 2)
	tr.Add(1, 0, 2)
	tr.Add(1, 1, 4)
	f, err := Factorize(tr.ToCSC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sign, _ := f.LogDet(); sign != 0 {
		t.Fatalf("singular sign = %g, want 0", sign)
	}
}

func TestCondEstimate(t *testing.T) {
	// Identity: κ₁ = 1.
	tr := sparse.NewTriplet(5, 5)
	for i := 0; i < 5; i++ {
		tr.Add(i, i, 1)
	}
	f, err := Factorize(tr.ToCSC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := tr.ToCSC()
	k, err := f.CondEstimate1(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1) > 1e-12 {
		t.Fatalf("κ(I) = %g, want 1", k)
	}

	// Diagonal with spread d: κ = max/min.
	tr2 := sparse.NewTriplet(4, 4)
	vals := []float64{1, 10, 100, 1000}
	for i, v := range vals {
		tr2.Add(i, i, v)
	}
	a2 := tr2.ToCSC()
	f2, err := Factorize(a2, nil)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := f2.CondEstimate1(a2)
	if err != nil {
		t.Fatal(err)
	}
	if k2 < 999 || k2 > 1001 {
		t.Fatalf("κ(diag) = %g, want ≈1000", k2)
	}
}

func TestCondEstimateNeverUnderestimatesBadly(t *testing.T) {
	// The Hager estimator is a lower bound on ‖A⁻¹‖₁ within a small
	// factor in practice; require it to be within 100× of the dense
	// value for random systems.
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(20)
		a := randomSystem(n, 0.2, rng)
		f, err := Factorize(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		est, err := f.CondEstimate1(a)
		if err != nil {
			t.Fatal(err)
		}
		// Dense ‖A⁻¹‖₁ by solving for each unit vector.
		d := a.ToDense()
		ipiv := make([]int, n)
		if err := blas.Dgetrf(n, n, d, n, ipiv); err != nil {
			t.Fatal(err)
		}
		norm := 0.0
		for j := 0; j < n; j++ {
			e := make([]float64, n)
			e[j] = 1
			blas.Dgetrs(n, d, n, ipiv, e)
			s := 0.0
			for _, v := range e {
				s += math.Abs(v)
			}
			if s > norm {
				norm = s
			}
		}
		trueK := a.Norm1() * norm
		if est > trueK*1.01 {
			t.Fatalf("trial %d: estimate %g above true κ %g", trial, est, trueK)
		}
		if est < trueK/100 {
			t.Fatalf("trial %d: estimate %g far below true κ %g", trial, est, trueK)
		}
	}
}

func TestPermSign(t *testing.T) {
	if permSign(sparse.Identity(5)) != 1 {
		t.Fatal("identity parity")
	}
	if permSign(sparse.Perm{1, 0}) != -1 {
		t.Fatal("transposition parity")
	}
	if permSign(sparse.Perm{1, 2, 0}) != 1 {
		t.Fatal("3-cycle parity")
	}
}

// Property: transpose-solve of A equals solve of Aᵀ across random
// systems and option combinations.
func TestQuickTransposeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		a := randomSystem(n, 0.15, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		opts := DefaultOptions()
		opts.Postorder = rng.Intn(2) == 0
		opts.Workers = 1 + rng.Intn(3)
		fac, err := Factorize(a, opts)
		if err != nil {
			return false
		}
		x, err := fac.SolveTranspose(b)
		if err != nil {
			return false
		}
		// Check Aᵀx = b directly.
		chk := make([]float64, n)
		a.MulVecT(x, chk)
		for i := range chk {
			if math.Abs(chk[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEquilibratedSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(308))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(30)
		a := randomSystem(n, 0.15, rng)
		// Badly scale rows and columns.
		for j := 0; j < n; j++ {
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				a.Val[k] *= scale
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		opts := DefaultOptions()
		opts.Equilibrate = true
		f, err := Factorize(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := Residual(a, x, b); r > 1e-9 {
			t.Fatalf("trial %d: equilibrated residual %g", trial, r)
		}
		// Transpose solve under scaling.
		bt := make([]float64, n)
		a.MulVecT(x, bt)
		xt, err := f.SolveTranspose(bt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(xt[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: transpose solve with scaling wrong at %d", trial, i)
			}
		}
	}
}

func TestEquilibrateScales(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 100)
	tr.Add(0, 1, 50)
	tr.Add(1, 1, 0.01)
	a := tr.ToCSC()
	r, c := Equilibrate(a)
	scaled := a.Clone()
	for j := 0; j < scaled.NCols; j++ {
		for k := scaled.ColPtr[j]; k < scaled.ColPtr[j+1]; k++ {
			scaled.Val[k] *= r[scaled.RowInd[k]] * c[j]
		}
	}
	// Every row and column maximum of the scaled matrix must be ≤ 1 and
	// the per-row maxima exactly 1 for nonzero rows.
	for j := 0; j < 2; j++ {
		rows, vals := scaled.Col(j)
		for k := range rows {
			if math.Abs(vals[k]) > 1+1e-15 {
				t.Fatalf("scaled entry %g > 1", vals[k])
			}
		}
	}
	if scaled.MaxAbs() > 1+1e-15 {
		t.Fatal("scaled max above 1")
	}
}

// TestEquilibrateSubnormalMaximum: a row whose maximum is subnormal
// would get the scale 1/max = +Inf, and the factors Inf·0 = NaN. The
// matrix factors and solves without equilibration, so it must with it.
func TestEquilibrateSubnormalMaximum(t *testing.T) {
	for _, tiny := range []float64{1e-310, 5e-324} {
		tr := sparse.NewTriplet(2, 2)
		tr.Add(0, 0, tiny)
		tr.Add(0, 1, tiny)
		tr.Add(1, 0, 1)
		tr.Add(1, 1, 2)
		a := tr.ToCSC()
		r, c := Equilibrate(a)
		for _, s := range append(r, c...) {
			if math.IsInf(s, 0) || math.IsNaN(s) || s == 0 {
				t.Fatalf("t=%g: scales r=%v c=%v", tiny, r, c)
			}
		}
		for _, equil := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Equilibrate = equil
			f, err := Factorize(a, opts)
			if err != nil {
				t.Fatalf("t=%g equilibrate=%v: %v", tiny, equil, err)
			}
			x, err := f.Solve([]float64{tiny, 3})
			if err != nil {
				t.Fatalf("t=%g equilibrate=%v: %v", tiny, equil, err)
			}
			if math.Abs(x[0]+1) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
				t.Fatalf("t=%g equilibrate=%v: x = %v, want [-1 2]", tiny, equil, x)
			}
		}
	}
}

func TestEquilibratedLogDet(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 200)
	tr.Add(1, 1, 0.5)
	a := tr.ToCSC()
	opts := DefaultOptions()
	opts.Equilibrate = true
	f, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	sign, logAbs := f.LogDet()
	if sign != 1 || math.Abs(logAbs-math.Log(100)) > 1e-10 {
		t.Fatalf("logdet = (%g, %g), want (1, log 100)", sign, logAbs)
	}
}

// TestSolveManyBlocked requires SolveMany of up to vectorMaxRHS
// right-hand sides to be bitwise Solve for each of them, and of more to
// agree with Solve to rounding, with and without equilibration.
func TestSolveManyBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(309))
	a := randomSystem(45, 0.1, rng)
	bs := randomRHS(rng, 5, 45)
	for _, equil := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Equilibrate = equil
		f, err := Factorize(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, nrhs := range []int{1, 2, 5} {
			xs, err := f.SolveMany(bs[:nrhs])
			if err != nil {
				t.Fatal(err)
			}
			for r := range xs {
				single, err := f.Solve(bs[r])
				if err != nil {
					t.Fatal(err)
				}
				for i := range single {
					if nrhs <= vectorMaxRHS && xs[r][i] != single[i] ||
						math.Abs(xs[r][i]-single[i]) > 1e-12*(1+math.Abs(single[i])) {
						t.Fatalf("equilibrate=%v nrhs=%d rhs %d: SolveMany %g vs Solve %g at %d",
							equil, nrhs, r, xs[r][i], single[i], i)
					}
				}
				if res := Residual(a, xs[r], bs[r]); res > 1e-10 {
					t.Fatalf("equilibrate=%v nrhs=%d rhs %d residual %g", equil, nrhs, r, res)
				}
			}
		}
	}
}

func TestSolveManyEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(310))
	a := randomSystem(10, 0.2, rng)
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := f.SolveMany(nil); err != nil || out != nil {
		t.Fatal("empty rhs set should be a no-op")
	}
	if _, err := f.SolveMany([][]float64{make([]float64, 9)}); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
}
