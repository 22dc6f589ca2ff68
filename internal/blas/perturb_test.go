package blas

import (
	"math"
	"testing"
)

// TestDgetf2StaticFailModeMatchesDgetf2 pins that DgetrfStatic's fail
// mode is exactly the Dgetrf behavior, including the first-zero-column
// report.
func TestDgetf2StaticFailModeMatchesDgetf2(t *testing.T) {
	// Column 1 becomes exactly zero after elimination of column 0
	// (second column is a multiple of the first).
	a := []float64{
		2, 4, 1,
		1, 2, 5,
		3, 6, 2,
	}
	b := append([]float64(nil), a...)
	ipivA := make([]int, 3)
	ipivB := make([]int, 3)
	errA := Dgetrf(3, 3, a, 3, ipivA)
	np, firstZero := DgetrfStatic(3, 3, b, 3, ipivB, 0, nil)
	if errA != ErrSingular {
		t.Fatalf("Dgetrf err = %v, want ErrSingular", errA)
	}
	if np != 0 {
		t.Fatalf("fail mode perturbed %d columns", np)
	}
	if firstZero != 1 {
		t.Fatalf("firstZero = %d, want 1", firstZero)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fail mode diverged from Dgetrf at %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i := range ipivA {
		if ipivA[i] != ipivB[i] {
			t.Fatalf("fail mode pivots diverged: %v vs %v", ipivA, ipivB)
		}
	}
}

// TestDgetf2StaticPerturbsZeroPivot: an exactly zero pivot becomes
// +thresh and the factorization completes usably.
func TestDgetf2StaticPerturbsZeroPivot(t *testing.T) {
	a := []float64{
		2, 4, 1,
		1, 2, 5,
		3, 6, 2,
	}
	ipiv := make([]int, 3)
	pcols := make([]int, 3)
	thresh := 1e-8
	np, firstZero := DgetrfStatic(3, 3, a, 3, ipiv, thresh, pcols)
	if firstZero != -1 {
		t.Fatalf("perturb mode reported firstZero = %d", firstZero)
	}
	if np != 1 || pcols[0] != 1 {
		t.Fatalf("perturbed columns = %v, want [1]", pcols[:np])
	}
	// The perturbed diagonal entry is exactly ±thresh.
	if got := math.Abs(a[1*3+1]); got != thresh {
		t.Fatalf("|u_11| = %g, want %g", got, thresh)
	}
	for i, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite factor entry at %d: %v", i, v)
		}
	}
}

// TestDgetf2StaticSignPreserving: tiny pivots keep their sign.
func TestDgetf2StaticSignPreserving(t *testing.T) {
	thresh := 0.5
	for _, tc := range []struct {
		piv  float64
		want float64
	}{
		{1e-300, thresh},
		{-1e-300, -thresh},
		{0, thresh},
		{math.Copysign(0, -1), -thresh},
	} {
		a := []float64{tc.piv}
		ipiv := make([]int, 1)
		pcols := make([]int, 1)
		np, _ := DgetrfStatic(1, 1, a, 1, ipiv, thresh, pcols)
		if np != 1 {
			t.Fatalf("pivot %g not perturbed", tc.piv)
		}
		if a[0] != tc.want {
			t.Fatalf("pivot %g perturbed to %g, want %g", tc.piv, a[0], tc.want)
		}
	}
}

// TestDgetf2StaticLargePivotUntouched: pivots at or above the threshold
// are not modified, so perturbation is a no-op on healthy panels.
func TestDgetf2StaticLargePivotUntouched(t *testing.T) {
	a := []float64{
		4, 1,
		1, 3,
	}
	want := append([]float64(nil), a...)
	ipivWant := make([]int, 2)
	if err := Dgetrf(2, 2, want, 2, ipivWant); err != nil {
		t.Fatal(err)
	}
	ipiv := make([]int, 2)
	pcols := make([]int, 2)
	np, _ := DgetrfStatic(2, 2, a, 2, ipiv, 1e-8, pcols)
	if np != 0 {
		t.Fatalf("healthy panel perturbed: %v", pcols[:np])
	}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("perturb mode changed a healthy factorization at %d", i)
		}
	}
}
