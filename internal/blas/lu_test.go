package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// reconstructLU multiplies P·L·U back together from the in-place
// factorization of an m×n matrix to compare against the original.
func reconstructLU(m, n int, lu []float64, lda int, ipiv []int) []float64 {
	mn := m
	if n < mn {
		mn = n
	}
	// Build L (m×mn, unit lower trapezoid) and U (mn×n, upper).
	l := make([]float64, m*mn)
	u := make([]float64, mn*n)
	for i := 0; i < m; i++ {
		for j := 0; j < mn && j <= i; j++ {
			if i == j {
				l[i*mn+j] = 1
			} else {
				l[i*mn+j] = lu[i*lda+j]
			}
		}
	}
	for i := 0; i < mn; i++ {
		for j := i; j < n; j++ {
			u[i*n+j] = lu[i*lda+j]
		}
	}
	prod := make([]float64, m*n)
	naiveGemm(m, n, mn, 1, l, mn, u, n, 0, prod, n)
	// Undo the pivoting: apply swaps in reverse to recover A.
	for i := len(ipiv) - 1; i >= 0; i-- {
		if p := ipiv[i]; p != i {
			Dswap(n, prod[i*n:], 1, prod[p*n:], 1)
		}
	}
	return prod
}

func TestDgetf2Square(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 8, 17} {
		a := randMat(n, n, rng)
		orig := append([]float64(nil), a...)
		ipiv := make([]int, n)
		if err := Dgetrf(n, n, a, n, ipiv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := reconstructLU(n, n, a, n, ipiv)
		if d := maxDiff(rec, orig); d > 1e-10 {
			t.Fatalf("n=%d: PLU differs from A by %g", n, d)
		}
	}
}

func TestDgetf2Rectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shapes := [][2]int{{5, 3}, {9, 2}, {3, 5}, {12, 7}}
	for _, s := range shapes {
		m, n := s[0], s[1]
		a := randMat(m, n, rng)
		orig := append([]float64(nil), a...)
		ipiv := make([]int, min(m, n))
		if err := Dgetrf(m, n, a, n, ipiv); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		rec := reconstructLU(m, n, a, n, ipiv)
		if d := maxDiff(rec, orig); d > 1e-10 {
			t.Fatalf("%v: PLU differs from A by %g", s, d)
		}
	}
}

func TestDgetf2PivotsAreMax(t *testing.T) {
	// With partial pivoting all multipliers |l_ij| ≤ 1.
	rng := rand.New(rand.NewSource(23))
	n := 20
	a := randMat(n, n, rng)
	ipiv := make([]int, n)
	if err := Dgetrf(n, n, a, n, ipiv); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(a[i*n+j]) > 1+1e-14 {
				t.Fatalf("multiplier |L[%d,%d]| = %g > 1", i, j, a[i*n+j])
			}
		}
	}
}

func TestDgetf2Singular(t *testing.T) {
	// Second column is a multiple of the first → zero pivot at step 1.
	a := []float64{1, 2, 2, 4}
	ipiv := make([]int, 2)
	if err := Dgetrf(2, 2, a, 2, ipiv); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// TestDgetrfMatchesDgetf2 pins Dgetrf on square matrices narrower and
// wider than a panel of the numeric phase (32 columns) to the seed
// unblocked loop, seedDgetf2Static, bit for bit.
func TestDgetrfMatchesDgetf2(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{10, 47, 48, 49, 96, 130} {
		a1 := randMat(n, n, rng)
		a2 := append([]float64(nil), a1...)
		p1 := make([]int, n)
		p2 := make([]int, n)
		if err := Dgetrf(n, n, a1, n, p1); err != nil {
			t.Fatalf("Dgetrf n=%d: %v", n, err)
		}
		if _, fz := seedDgetf2Static(n, n, a2, n, p2, 0); fz >= 0 {
			t.Fatalf("seed n=%d: zero pivot at %d", n, fz)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("n=%d: pivot %d differs: %d vs %d", n, i, p1[i], p2[i])
			}
		}
		bitsEqual(t, fmt.Sprintf("Dgetrf n=%d", n), a1, a2)
	}
}

func TestDgetrs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 30
	a := randMat(n, n, rng)
	orig := append([]float64(nil), a...)
	x := randVec(n, rng)
	b := make([]float64, n)
	Dgemv(false, n, n, 1, orig, n, x, 0, b)
	ipiv := make([]int, n)
	if err := Dgetrf(n, n, a, n, ipiv); err != nil {
		t.Fatal(err)
	}
	Dgetrs(n, a, n, ipiv, b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-8 {
			t.Fatalf("solve error at %d: %g vs %g", i, b[i], x[i])
		}
	}
}

// Property: random well-scaled square systems solve to small residual.
func TestQuickLUSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		a := randMat(n, n, rng)
		for i := 0; i < n; i++ {
			a[i*n+i] += float64(n) // diagonally dominant → well-conditioned
		}
		orig := append([]float64(nil), a...)
		x := randVec(n, rng)
		b := make([]float64, n)
		Dgemv(false, n, n, 1, orig, n, x, 0, b)
		ipiv := make([]int, n)
		if err := Dgetrf(n, n, a, n, ipiv); err != nil {
			return false
		}
		Dgetrs(n, a, n, ipiv, b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
