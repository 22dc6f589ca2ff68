package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveGemm is the O(mnk) reference used to validate the blocked kernel.
func naiveGemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*lda+p] * b[p*ldb+j]
			}
			c[i*ldc+j] = alpha*s + beta*c[i*ldc+j]
		}
	}
}

func randMat(m, n int, rng *rand.Rand) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestDgemvNoTrans(t *testing.T) {
	// A = [1 2; 3 4; 5 6], x = [1, 1], y = A x = [3, 7, 11]
	a := []float64{1, 2, 3, 4, 5, 6}
	x := []float64{1, 1}
	y := make([]float64, 3)
	Dgemv(false, 3, 2, 1, a, 2, x, 0, y)
	want := []float64{3, 7, 11}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Dgemv = %v, want %v", y, want)
		}
	}
}

func TestDgemvTrans(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	x := []float64{1, 1, 1}
	y := make([]float64, 2)
	Dgemv(true, 3, 2, 1, a, 2, x, 0, y)
	want := []float64{9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Dgemv trans = %v, want %v", y, want)
		}
	}
}

func TestDgemvBeta(t *testing.T) {
	a := []float64{2}
	y := []float64{10}
	Dgemv(false, 1, 1, 1, a, 1, []float64{3}, 0.5, y)
	if y[0] != 11 {
		t.Fatalf("Dgemv beta = %g, want 11", y[0])
	}
}

func TestDtrsvLowerUnit(t *testing.T) {
	// L = [1 0; 2 1], b = [3, 8] → y = [3, 2]
	l := []float64{1, 0, 2, 1}
	x := []float64{3, 8}
	Dtrsv(true, true, 2, l, 2, x)
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("Dtrsv lower = %v", x)
	}
}

func TestDtrsvUpper(t *testing.T) {
	// U = [2 1; 0 4], b = [5, 8] → x = [1.5, 2]
	u := []float64{2, 1, 0, 4}
	x := []float64{5, 8}
	Dtrsv(false, false, 2, u, 2, x)
	if x[0] != 1.5 || x[1] != 2 {
		t.Fatalf("Dtrsv upper = %v", x)
	}
}

func TestDgemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := [][3]int{{1, 1, 1}, {3, 5, 2}, {16, 16, 16}, {65, 33, 129}, {70, 70, 70}, {128, 1, 128}, {1, 128, 7}}
	for _, s := range sizes {
		m, n, k := s[0], s[1], s[2]
		a := randMat(m, k, rng)
		b := randMat(k, n, rng)
		c1 := randMat(m, n, rng)
		c2 := append([]float64(nil), c1...)
		alpha, beta := 1.5, -0.5
		Dgemm(m, n, k, alpha, a, k, b, n, beta, c1, n)
		naiveGemm(m, n, k, alpha, a, k, b, n, beta, c2, n)
		if d := maxDiff(c1, c2); d > 1e-10 {
			t.Fatalf("Dgemm %v differs from naive by %g", s, d)
		}
	}
}

func TestDgemmBetaZeroOverwritesNaN(t *testing.T) {
	// beta = 0 must overwrite even NaN entries in C.
	c := []float64{math.NaN()}
	Dgemm(1, 1, 1, 1, []float64{2}, 1, []float64{3}, 1, 0, c, 1)
	if c[0] != 6 {
		t.Fatalf("Dgemm beta=0 = %g, want 6", c[0])
	}
}

func TestDgemmSubmatrixStrides(t *testing.T) {
	// Operate on the top-left 2×2 blocks of 3-wide storage.
	rng := rand.New(rand.NewSource(12))
	a := randMat(3, 3, rng)
	b := randMat(3, 3, rng)
	c1 := randMat(3, 3, rng)
	c2 := append([]float64(nil), c1...)
	Dgemm(2, 2, 2, 1, a, 3, b, 3, 1, c1, 3)
	naiveGemm(2, 2, 2, 1, a, 3, b, 3, 1, c2, 3)
	if d := maxDiff(c1, c2); d > 1e-12 {
		t.Fatalf("strided Dgemm differs by %g", d)
	}
	// Elements outside the 2×2 block must be untouched.
	for _, idx := range []int{2, 5, 6, 7, 8} {
		if c1[idx] != c2[idx] {
			t.Fatal("Dgemm touched memory outside the block")
		}
	}
}

func TestDtrsmLowerUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, n := 9, 5
	l := randMat(m, m, rng)
	for i := 0; i < m; i++ {
		l[i*m+i] = 1
		for j := i + 1; j < m; j++ {
			l[i*m+j] = 0
		}
	}
	x := randMat(m, n, rng)
	b := append([]float64(nil), x...)
	// b = L x, then solve back.
	lx := make([]float64, m*n)
	naiveGemm(m, n, m, 1, l, m, x, n, 0, lx, n)
	Dtrsm(true, true, m, n, 1, l, m, lx, n)
	if d := maxDiff(lx, b); d > 1e-10 {
		t.Fatalf("Dtrsm lower-unit residual %g", d)
	}
}

func TestDtrsmUpper(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m, n := 7, 4
	u := randMat(m, m, rng)
	for i := 0; i < m; i++ {
		u[i*m+i] += 5 // well-conditioned diagonal
		for j := 0; j < i; j++ {
			u[i*m+j] = 0
		}
	}
	x := randMat(m, n, rng)
	ux := make([]float64, m*n)
	naiveGemm(m, n, m, 1, u, m, x, n, 0, ux, n)
	Dtrsm(false, false, m, n, 1, u, m, ux, n)
	if d := maxDiff(ux, x); d > 1e-10 {
		t.Fatalf("Dtrsm upper residual %g", d)
	}
}

func TestDtrsmAlpha(t *testing.T) {
	// T = I: X = alpha*B.
	tmat := []float64{1, 0, 0, 1}
	b := []float64{2, 4, 6, 8}
	Dtrsm(true, true, 2, 2, 0.5, tmat, 2, b, 2)
	want := []float64{1, 2, 3, 4}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("Dtrsm alpha = %v, want %v", b, want)
		}
	}
}

// Property: Dgemm agrees with the naive kernel on random shapes.
func TestQuickDgemm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, k := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a := randMat(m, k, rng)
		b := randMat(k, n, rng)
		c1 := randMat(m, n, rng)
		c2 := append([]float64(nil), c1...)
		Dgemm(m, n, k, -2, a, k, b, n, 1, c1, n)
		naiveGemm(m, n, k, -2, a, k, b, n, 1, c2, n)
		return maxDiff(c1, c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDtrsvtLower(t *testing.T) {
	// L = [1 0; 2 1] (unit): Lᵀx = b with b = [5, 2] → x[1]=2, x[0]=5−2·2=1
	l := []float64{1, 0, 2, 1}
	x := []float64{5, 2}
	Dtrsvt(true, true, 2, l, 2, x)
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("Dtrsvt lower-unit = %v, want [1 2]", x)
	}
}

func TestDtrsvtUpper(t *testing.T) {
	// U = [2 3; 0 4]: Uᵀx = b with b = [2, 10] → x[0]=1, x[1]=(10−3)/4
	u := []float64{2, 3, 0, 4}
	x := []float64{2, 10}
	Dtrsvt(false, false, 2, u, 2, x)
	if x[0] != 1 || x[1] != 1.75 {
		t.Fatalf("Dtrsvt upper = %v, want [1 1.75]", x)
	}
}

func TestDtrsvtMatchesDtrsvOfTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 9
	// Build a well-conditioned lower-triangular T.
	tm := randMat(n, n, rng)
	for i := 0; i < n; i++ {
		tm[i*n+i] += float64(n)
		for j := i + 1; j < n; j++ {
			tm[i*n+j] = 0
		}
	}
	// Tᵀ explicitly.
	tt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tt[j*n+i] = tm[i*n+j]
		}
	}
	b := randVec(n, rng)
	x1 := append([]float64(nil), b...)
	Dtrsvt(true, false, n, tm, n, x1) // Tᵀ x = b via Dtrsvt on T
	x2 := append([]float64(nil), b...)
	Dtrsv(false, false, n, tt, n, x2) // Tᵀ is upper: direct solve
	if d := maxDiff(x1, x2); d > 1e-12 {
		t.Fatalf("Dtrsvt differs from direct transpose solve by %g", d)
	}
}

func TestDgemmAlphaZeroEarlyOut(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	Dgemm(2, 2, 2, 0, []float64{9, 9, 9, 9}, 2, []float64{9, 9, 9, 9}, 2, 1, c, 2)
	want := []float64{1, 2, 3, 4}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("alpha=0 modified C: %v", c)
		}
	}
}

func TestDgemmKZero(t *testing.T) {
	c := []float64{1, 2}
	Dgemm(1, 2, 0, 1, nil, 1, nil, 2, 2, c, 2)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("k=0 should just scale C by beta: %v", c)
	}
}

// TestRowKernelsMatchDgemvDgemm pins the row-map kernels to the calls
// they stand for, bit for bit: DgemvRows and DgemmRows to Dgemv and
// Dgemm with α = −1, β = 1 on each mapped row alone. The targets are in
// a random order and DgemmRows meets dropped rows (−1), A holds ±0 rows
// and ±0 entries, and x, y and B hold ±0, Inf and NaN, so the zero-skip
// rules and the signs of zero are exercised as well as the sums.
func TestRowKernelsMatchDgemvDgemm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	draw := func(p float64) float64 {
		if rng.Float64() < p {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for trial := 0; trial < 200; trial++ {
		m, n, nrhs := 1+rng.Intn(12), 1+rng.Intn(9), 1+rng.Intn(17)
		a := make([]float64, m*n)
		for i := range a {
			if rng.Intn(3) > 0 {
				a[i] = draw(0.2)
			} else if rng.Intn(2) == 0 {
				a[i] = math.Copysign(0, -1)
			}
		}
		// Row p of A lands in row m + perm[p] of y and C; the first
		// len(perm) rows are mapped.
		perm := rng.Perm(m)[:rng.Intn(m+1)]
		to := make([]int32, len(perm))
		for p, s := range perm {
			to[p] = int32(m + s)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = draw(0.15)
		}
		y := make([]float64, 2*m)
		for i := range y {
			y[i] = draw(0.15)
		}

		got, want := append([]float64(nil), y...), append([]float64(nil), y...)
		DgemvRows(n, a, n, to, x, got)
		for p, s := range perm {
			Dgemv(false, 1, n, -1, a[p*n:], n, x, 1, want[m+s:])
		}
		for i := range got {
			if !same(got[i], want[i]) {
				t.Fatalf("trial %d: DgemvRows y[%d] = %v, Dgemv %v", trial, i, got[i], want[i])
			}
		}

		b := make([]float64, n*nrhs)
		for i := range b {
			b[i] = draw(0.1)
		}
		c := make([]float64, 2*m*nrhs)
		for i := range c {
			c[i] = draw(0.1)
		}
		gotC, wantC := append([]float64(nil), c...), append([]float64(nil), c...)
		for p := range to {
			if rng.Intn(4) == 0 {
				to[p] = -1
			}
		}
		DgemmRows(nrhs, n, a, n, to, b, nrhs, gotC, nrhs)
		for p, s := range to {
			if s >= 0 {
				Dgemm(1, nrhs, n, -1, a[p*n:], n, b, nrhs, 1, wantC[int(s)*nrhs:], nrhs)
			}
		}
		for i := range gotC {
			if !same(gotC[i], wantC[i]) {
				t.Fatalf("trial %d: DgemmRows c[%d] = %v, Dgemm %v", trial, i, gotC[i], wantC[i])
			}
		}
	}
}
