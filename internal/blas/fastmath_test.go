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

// TestSetTilesClamps: out-of-range requests are pulled back to the
// scratch capacities and micro-tile multiples.
func TestSetTilesClamps(t *testing.T) {
	defer SetTiles(DefaultBlockSizes())
	got := SetTiles(BlockSizes{MC: 10000, KC: 10000, NC: 10000, NB: 10000})
	if got.MC != packMaxMC || got.KC != packMaxKC || got.NC != packMaxNC || got.NB != 128 {
		t.Fatalf("upper clamp wrong: %+v", got)
	}
	got = SetTiles(BlockSizes{MC: -1, KC: 0, NC: -5, NB: 0})
	if got != DefaultBlockSizes() {
		t.Fatalf("non-positive fields should select defaults: %+v", got)
	}
	got = SetTiles(BlockSizes{MC: 67, KC: 93, NC: 100, NB: 43})
	if got.MC%gemmMR != 0 || got.KC%8 != 0 || got.NC%gemmNR != 0 || got.NB%8 != 0 {
		t.Fatalf("multiples not enforced: %+v", got)
	}
}

// TestTilesBitwiseInvariance: the bitwise kernels must produce
// byte-identical results under every legal tiling — blocking only
// regroups work, never reorders a C element's accumulation.
func TestTilesBitwiseInvariance(t *testing.T) {
	defer SetTiles(DefaultBlockSizes())
	rng := rand.New(rand.NewSource(45))
	m, n, k := 150, 90, 140
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := 0; i < len(a); i += 5 {
		a[i] = 0
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	run := func(bs BlockSizes) ([]float64, []int) {
		SetTiles(bs)
		c := make([]float64, m*n)
		Dgemm(m, n, k, 1, a, k, b, n, 0, c, n)
		lu := make([]float64, m*k)
		copy(lu, a)
		ipiv := make([]int, k)
		DgetrfStatic(m, k, lu, k, ipiv, 0, nil)
		c = append(c, lu...)
		return c, ipiv
	}
	ref, refPiv := run(DefaultBlockSizes())
	for _, bs := range []BlockSizes{
		{MC: 64, KC: 48, NC: 64, NB: 8},
		{MC: packMaxMC, KC: packMaxKC, NC: packMaxNC, NB: 128},
		{MC: 4, KC: 16, NC: 8, NB: 16},
	} {
		got, gotPiv := run(bs)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("tiles %+v: element %d differs bitwise: %x vs %x",
					bs, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
			}
		}
		for i := range refPiv {
			if gotPiv[i] != refPiv[i] {
				t.Fatalf("tiles %+v: pivot %d differs", bs, i)
			}
		}
	}
}

// TestAutotuneOnce: the probe must either fail gracefully (defaults
// stay active) or install tiles within the scratch capacities; repeated
// calls return the same outcome.
func TestAutotuneOnce(t *testing.T) {
	info := AutotuneOnce()
	bs := info.Tiles
	if bs.MC < gemmMR || bs.MC > packMaxMC || bs.KC < 16 || bs.KC > packMaxKC ||
		bs.NC < gemmNR || bs.NC > packMaxNC || bs.NB < 8 || bs.NB > 128 {
		t.Fatalf("autotuned tiles out of range: %+v", bs)
	}
	if info.Probed && (info.L1DataBytes <= 0 || info.L2Bytes <= 0) {
		t.Fatalf("probed but cache sizes missing: %+v", info)
	}
	if again := AutotuneOnce(); again != info {
		t.Fatalf("AutotuneOnce not idempotent: %+v vs %+v", again, info)
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := map[string]int{
		"32K": 32 * 1024,
		"1M":  1024 * 1024,
		"512": 512,
		"1G":  1 << 30,
		"":    0,
		"abc": 0,
		"-4K": 0,
	}
	for in, want := range cases {
		if got := parseCacheSize(in); got != want {
			t.Fatalf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}
}
