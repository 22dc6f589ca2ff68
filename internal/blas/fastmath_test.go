package blas

import (
	"math"
	"math/rand"
	"testing"
)

// absGemm computes (|A|·|B|)_{ij}, the componentwise error scale.
func absGemm(m, n, k int, a []float64, lda int, b []float64, ldb int) []float64 {
	s := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t := 0.0
			for p := 0; p < k; p++ {
				t += math.Abs(a[i*lda+p]) * math.Abs(b[p*ldb+j])
			}
			s[i*n+j] = t
		}
	}
	return s
}

// TestDgemmFastErrorBound: the FastMath kernels carry no bitwise
// guarantee, but every element must stay within the classical
// componentwise bound |Ĉ−C| ≤ c·k·ε·(|A|·|B|) of a dot product
// evaluated in any association order.
func TestDgemmFastErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{4, 8, 256}, {64, 64, 64}, {130, 70, 90}, {256, 256, 256}, {37, 41, 300}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		// Sprinkle exact zeros: FastMath drops the zero-skip, so these
		// exercise the paths where the modes differ most.
		for i := 0; i < len(a); i += 7 {
			a[i] = 0
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, m*n)
		want := make([]float64, m*n)
		copy(want, got)
		DgemmFast(m, n, k, 1, a, k, b, n, 1, got, n)
		naiveGemm(m, n, k, 1, a, k, b, n, 1, want, n)
		scale := absGemm(m, n, k, a, k, b, n)
		bound := 4 * float64(k) * 0x1p-52
		for i := range got {
			if diff := math.Abs(got[i] - want[i]); diff > bound*scale[i]+1e-300 {
				t.Fatalf("dims %v: element %d off by %g (scale %g, bound %g)",
					dims, i, diff, scale[i], bound*scale[i])
			}
		}
	}
}

// TestMicroKernelFastVariantsAgree: the FMA assembly kernel and the
// branch-free Go kernel are different roundings of the same sum; they
// must agree to a componentwise bound even though they are not bitwise
// identical.
func TestMicroKernelFastVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const kc = 97
	pa := make([]float64, gemmMR*kc)
	pb := make([]float64, gemmNR*kc)
	for i := range pa {
		pa[i] = rng.NormFloat64()
	}
	for i := range pb {
		pb[i] = rng.NormFloat64()
	}
	off := make([]int32, kc)
	for p := range off {
		off[p] = int32(8 * gemmNR * p)
	}
	cFast := make([]float64, gemmMR*gemmNR)
	cGo := make([]float64, gemmMR*gemmNR)
	microKernel4x8Fast(kc, pa, off, pb, cFast, gemmNR)
	microKernel4x8FastGo(kc, pa, off, pb, cGo, gemmNR)
	for i := range cFast {
		if diff := math.Abs(cFast[i] - cGo[i]); diff > 4*kc*0x1p-52*(math.Abs(cGo[i])+1) {
			t.Fatalf("element %d: fast %g vs go %g", i, cFast[i], cGo[i])
		}
	}
}

// TestDgetrfStaticFastSolves: a FastMath factorization must still solve
// well-conditioned systems to near machine precision.
func TestDgetrfStaticFastSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 120
	a := make([]float64, n*n)
	orig := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n) // diagonally dominant: well conditioned
	}
	copy(orig, a)
	ipiv := make([]int, n)
	if _, fz := DgetrfStaticFast(n, n, a, n, ipiv, 0, nil); fz >= 0 {
		t.Fatalf("unexpected zero pivot at %d", fz)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	b := make([]float64, n)
	naiveGemm(n, 1, n, 1, orig, n, x, 1, 0, b, 1)
	Dgetrs(n, a, n, ipiv, b)
	for i := range b {
		if math.Abs(b[i]-1) > 1e-10 {
			t.Fatalf("x[%d] = %g, want 1", i, b[i])
		}
	}
}
