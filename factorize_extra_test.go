package sparselu

import (
	"math"
	"testing"
)

func TestPublicSolveTranspose(t *testing.T) {
	m := buildRandom(t, 30, 0.12, 41)
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 30)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	// b = Aᵀx via (Aᵀ)·x = columns dot x.
	b := make([]float64, 30)
	for j := 0; j < 30; j++ {
		var s float64
		for i := 0; i < 30; i++ {
			s += m.At(i, j) * x[i]
		}
		b[j] = s
	}
	got, err := f.SolveTranspose(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], x[i])
		}
	}
}

func TestPublicSolveRefined(t *testing.T) {
	m := buildRandom(t, 25, 0.15, 42)
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 25)
	for i := range b {
		b[i] = 1
	}
	x, berr, steps, err := f.SolveRefined(b, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if berr > 1e-13 || steps > 3 {
		t.Fatalf("berr %g steps %d", berr, steps)
	}
	if r := Residual(m, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

func TestPublicConditionEstimate(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 2)
	b.Add(2, 2, 2)
	m, _ := b.Build()
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, err := f.ConditionEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1) > 1e-12 {
		t.Fatalf("κ(2I) = %g, want 1", k)
	}
}

func TestPublicLogDetAndGrowth(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 3)
	b.Add(1, 1, 4)
	m, _ := b.Build()
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	sign, logAbs := f.LogDet()
	if sign != 1 || math.Abs(logAbs-math.Log(12)) > 1e-12 {
		t.Fatalf("logdet = (%g, %g), want (1, log 12)", sign, logAbs)
	}
	if g := f.PivotGrowth(); math.Abs(g-1) > 1e-12 {
		t.Fatalf("growth of diagonal matrix = %g, want 1", g)
	}
}

// TestPublicTinyOrders runs every solve and diagnostic of the public API
// on a 0×0 and a 1×1 matrix (A = [−4]): the empty system has the empty
// solution, determinant 1 and κ₁ = 1 (xGECON's quick return), and the
// scalar one x = b/a, log|det| = log 4 with sign −1, κ₁ = 1 and growth 1.
func TestPublicTinyOrders(t *testing.T) {
	for _, n := range []int{0, 1} {
		b := NewBuilder(n)
		if n == 1 {
			b.Add(0, 0, -4)
		}
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		f, err := Factorize(m, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rhs := make([]float64, n)
		want := make([]float64, n)
		if n == 1 {
			rhs[0], want[0] = 2, -0.5
		}
		check := func(name string, x []float64, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if len(x) != n || n == 1 && x[0] != want[0] {
				t.Fatalf("n=%d %s = %v, want %v", n, name, x, want)
			}
		}
		x, err := f.Solve(rhs)
		check("Solve", x, err)
		xs, err := f.SolveMany([][]float64{rhs, rhs})
		if len(xs) != 2 {
			t.Fatalf("n=%d SolveMany returned %d solutions, want 2 (err %v)", n, len(xs), err)
		}
		check("SolveMany[0]", xs[0], err)
		check("SolveMany[1]", xs[1], err)
		x, err = f.SolveTranspose(rhs)
		check("SolveTranspose", x, err)
		x, berr, steps, err := f.SolveRefined(rhs, 3, 0)
		check("SolveRefined", x, err)
		if berr != 0 || steps != 0 {
			t.Fatalf("n=%d SolveRefined: backward error %g after %d steps, want an exact solve", n, berr, steps)
		}
		k, err := f.ConditionEstimate()
		if err != nil || k != 1 {
			t.Fatalf("n=%d ConditionEstimate = %g, %v; want 1, nil", n, k, err)
		}
		sign, logAbs := f.LogDet()
		wantSign, wantLog := 1.0, 0.0
		if n == 1 {
			wantSign, wantLog = -1, math.Log(4)
		}
		if sign != wantSign || math.Abs(logAbs-wantLog) > 1e-15 {
			t.Fatalf("n=%d LogDet = (%g, %g), want (%g, %g)", n, sign, logAbs, wantSign, wantLog)
		}
		// The empty matrix has no entry to grow from: 0 by the
		// convention of an all-zero A.
		if g, wantG := f.PivotGrowth(), float64(n); g != wantG {
			t.Fatalf("n=%d PivotGrowth = %g, want %g", n, g, wantG)
		}
	}
}
