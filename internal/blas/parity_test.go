package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file pins the packed/blocked kernels bitwise to the seed
// kernels: seedDgemm, seedDtrsm and seedDgetf2Static below are
// verbatim copies of the pre-packing implementations (the original
// level3.go/lu.go), and every test demands Float64bits equality, not
// tolerance. The packed paths may reorder *which element* is updated
// when, but each element's own contribution sequence — ascending k,
// with the exact-zero skip — must match the seed exactly, and that is
// what these tests enforce.

const (
	seedMC = 64
	seedKC = 128
)

func seedDgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if beta != 1 {
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			if beta == 0 {
				for j := range row {
					row[j] = 0
				}
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	for kb := 0; kb < k; kb += seedKC {
		kEnd := kb + seedKC
		if kEnd > k {
			kEnd = k
		}
		for ib := 0; ib < m; ib += seedMC {
			iEnd := ib + seedMC
			if iEnd > m {
				iEnd = m
			}
			for i := ib; i < iEnd; i++ {
				crow := c[i*ldc : i*ldc+n]
				arow := a[i*lda:]
				for p := kb; p < kEnd; p++ {
					aip := alpha * arow[p]
					if aip == 0 {
						continue
					}
					brow := b[p*ldb : p*ldb+n]
					for j, v := range brow {
						crow[j] += aip * v
					}
				}
			}
		}
	}
}

func seedDtrsm(lower, unit bool, m, n int, alpha float64, t []float64, ldt int, b []float64, ldb int) {
	if alpha != 1 {
		for i := 0; i < m; i++ {
			row := b[i*ldb : i*ldb+n]
			for j := range row {
				row[j] *= alpha
			}
		}
	}
	if lower {
		for i := 0; i < m; i++ {
			bi := b[i*ldb : i*ldb+n]
			trow := t[i*ldt : i*ldt+i]
			for p, tip := range trow {
				if tip == 0 {
					continue
				}
				bp := b[p*ldb : p*ldb+n]
				for j, v := range bp {
					bi[j] -= tip * v
				}
			}
			if !unit {
				d := 1 / t[i*ldt+i]
				for j := range bi {
					bi[j] *= d
				}
			}
		}
		return
	}
	for i := m - 1; i >= 0; i-- {
		bi := b[i*ldb : i*ldb+n]
		trow := t[i*ldt+i+1 : i*ldt+m]
		for pj, tip := range trow {
			if tip == 0 {
				continue
			}
			p := i + 1 + pj
			bp := b[p*ldb : p*ldb+n]
			for j, v := range bp {
				bi[j] -= tip * v
			}
		}
		if !unit {
			d := 1 / t[i*ldt+i]
			for j := range bi {
				bi[j] *= d
			}
		}
	}
}

func seedDgetf2Static(m, n int, a []float64, lda int, ipiv []int, thresh float64) (perturbed []int, firstZero int) {
	mn := m
	if n < mn {
		mn = n
	}
	firstZero = -1
	for j := 0; j < mn; j++ {
		p := j
		best := math.Abs(a[j*lda+j])
		for i := j + 1; i < m; i++ {
			if v := math.Abs(a[i*lda+j]); v > best {
				best, p = v, i
			}
		}
		ipiv[j] = p
		if best == 0 && thresh <= 0 {
			if firstZero < 0 {
				firstZero = j
			}
			continue
		}
		if p != j {
			Dswap(n, a[j*lda:], 1, a[p*lda:], 1)
		}
		piv := a[j*lda+j]
		if thresh > 0 && math.Abs(piv) < thresh {
			if math.Signbit(piv) {
				piv = -thresh
			} else {
				piv = thresh
			}
			a[j*lda+j] = piv
			perturbed = append(perturbed, j)
		}
		inv := 1 / piv
		for i := j + 1; i < m; i++ {
			lij := a[i*lda+j] * inv
			a[i*lda+j] = lij
			if lij == 0 {
				continue
			}
			arow := a[i*lda+j+1 : i*lda+n]
			urow := a[j*lda+j+1 : j*lda+n]
			for t, v := range urow {
				arow[t] -= lij * v
			}
		}
	}
	return perturbed, firstZero
}

// sparseRandMat draws normal values with ~20% exact zeros (half of
// them negative zeros) and a sprinkle of tiny magnitudes, so the
// kernels' exact-zero skip paths and sign handling are exercised.
func sparseRandMat(m, n int, rng *rand.Rand) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		switch r := rng.Float64(); {
		case r < 0.1:
			a[i] = 0
		case r < 0.2:
			a[i] = math.Copysign(0, -1)
		case r < 0.25:
			a[i] = rng.NormFloat64() * 0x1p-1000
		default:
			a[i] = rng.NormFloat64()
		}
	}
	return a
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%g), seed %x (%g)",
				name, i, math.Float64bits(got[i]), got[i],
				math.Float64bits(want[i]), want[i])
		}
	}
}

// TestDgemmBitwiseParity pins the packed path (and the small-path
// dispatch) to the seed kernel across shapes straddling every
// dispatch and edge-tile boundary.
func TestDgemmBitwiseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	shapes := [][3]int{
		{4, 8, 64},    // exactly one micro-tile, packed cutoff boundary
		{64, 64, 64},  // packed, full tiles
		{64, 64, 300}, // multiple KC blocks
		{129, 17, 261},
		{5, 11, 300},
		{67, 130, 129},
		{100, 8, 4},
		{256, 256, 256},
		{3, 300, 300}, // m < MR: scalar path at size
		{300, 7, 300}, // n < NR: scalar path at size
	}
	alphas := []float64{1, -1, 0.5, 0, 2}
	betas := []float64{1, 0, -1, 0.5}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := sparseRandMat(m, k, rng)
		b := sparseRandMat(k, n, rng)
		c0 := sparseRandMat(m, n, rng)
		for _, alpha := range alphas {
			for _, beta := range betas {
				c1 := append([]float64(nil), c0...)
				c2 := append([]float64(nil), c0...)
				Dgemm(m, n, k, alpha, a, k, b, n, beta, c1, n)
				seedDgemm(m, n, k, alpha, a, k, b, n, beta, c2, n)
				bitsEqual(t, "Dgemm", c1, c2)
			}
		}
	}
}

// TestDtrsmBitwiseParity pins the blocked lower solve (and the
// untouched upper solve) to the seed kernel.
func TestDtrsmBitwiseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, lower := range []bool{true, false} {
		for _, unit := range []bool{true, false} {
			for _, m := range []int{1, 16, 32, 33, 64, 200} {
				for _, n := range []int{1, 8, 50} {
					tm := sparseRandMat(m, m, rng)
					for i := 0; i < m; i++ {
						// Well-scaled diagonal keeps iterated solves finite.
						tm[i*m+i] = 1 + rng.Float64()
					}
					b0 := sparseRandMat(m, n, rng)
					for _, alpha := range []float64{1, -1, 0.5} {
						b1 := append([]float64(nil), b0...)
						b2 := append([]float64(nil), b0...)
						Dtrsm(lower, unit, m, n, alpha, tm, m, b1, n)
						seedDtrsm(lower, unit, m, n, alpha, tm, m, b2, n)
						bitsEqual(t, "Dtrsm", b1, b2)
					}
				}
			}
		}
	}
}

// TestDgetrfStaticBitwiseParity pins DgetrfStatic to the seed kernel:
// same factors, pivots, perturbation reports, and first-zero column, bit
// for bit, in fail and perturb mode. First on shapes wider than any
// panel of the numeric phase (the column-major path takes every one
// whose copy fits the scratch) and one whose copy does not, which runs
// the row-major loop in place; then on the F(K) shapes on ±0-laced
// values: every width w ≤ 32 against square-ish panels (m = w … w+3,
// whose rows end inside a four-row vector at every step) and the tall
// stacked panels of sherman5 and orsreg1 (m = 330, 416).
func TestDgetrfStaticBitwiseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	shapes := [][2]int{
		{16, 16},
		{96, 64}, // tall
		{130, 130},
		{64, 100}, // wide: columns right of the last pivot
		{261, 96},
		{700, 100}, // luLD(700)·100 > packMC·packKC: the row-major loop
	}
	for _, s := range shapes {
		m, n := s[0], s[1]
		for _, thresh := range []float64{0, 1e-8} {
			checkGetrfParity(t, fmt.Sprintf("DgetrfStatic %dx%d thresh=%g", m, n, thresh), m, n, sparseRandMat(m, n, rng), thresh)
		}
	}
	for w := 1; w <= 32; w++ {
		for _, m := range []int{w, w + 1, w + 2, w + 3, 330, 416} {
			for _, thresh := range []float64{0, 1e-8} {
				checkGetrfParity(t, fmt.Sprintf("DgetrfStatic %dx%d thresh=%g", m, w, thresh), m, w, zeroLacedMat(m, w, rng), thresh)
			}
		}
	}
}

// checkGetrfParity runs DgetrfStatic and the seed loop on copies of the
// m×n matrix a0 and demands equal factors, pivots, perturbations and
// first zero.
func checkGetrfParity(t *testing.T, name string, m, n int, a0 []float64, thresh float64) {
	t.Helper()
	mn := min(m, n)
	a1 := append([]float64(nil), a0...)
	a2 := append([]float64(nil), a0...)
	ipiv1, ipiv2, pbuf := make([]int, mn), make([]int, mn), make([]int, mn)
	np, fz1 := DgetrfStatic(m, n, a1, n, ipiv1, thresh, pbuf)
	pcols, fz2 := seedDgetf2Static(m, n, a2, n, ipiv2, thresh)
	bitsEqual(t, name+" factors", a1, a2)
	if fz1 != fz2 || np != len(pcols) {
		t.Fatalf("%s: (np=%d, firstZero=%d) vs seed (np=%d, firstZero=%d)", name, np, fz1, len(pcols), fz2)
	}
	for i := 0; i < np; i++ {
		if pbuf[i] != pcols[i] {
			t.Fatalf("%s: perturbed col %d vs seed %d", name, pbuf[i], pcols[i])
		}
	}
	for i := range ipiv1 {
		if ipiv1[i] != ipiv2[i] {
			t.Fatalf("%s: ipiv[%d] = %d vs seed %d", name, i, ipiv1[i], ipiv2[i])
		}
	}
}

// TestDgetrfStaticZeroPivotParity drives the fail-mode skip and the
// perturb-mode replacement through the column-major path: column 40
// starts entirely zero and stays exactly zero under elimination (every
// update subtracts l·0 = ±0), so step 40 meets an exactly zero pivot
// column. In fail mode step 40 is skipped — no scaling, no update — and
// its column keeps its zeros below the diagonal, which the later
// steps' updates leave as the seed's skipped eliminations do.
func TestDgetrfStaticZeroPivotParity(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	m, n := 150, 96
	base := sparseRandMat(m, n, rng)
	for i := 0; i < m; i++ {
		base[i*n+40] = 0
	}
	for _, thresh := range []float64{0, 1e-8} {
		a1 := append([]float64(nil), base...)
		a2 := append([]float64(nil), base...)
		ipiv1 := make([]int, n)
		ipiv2 := make([]int, n)
		pbuf := make([]int, n)
		np, fz1 := DgetrfStatic(m, n, a1, n, ipiv1, thresh, pbuf)
		pcols, fz2 := seedDgetf2Static(m, n, a2, n, ipiv2, thresh)
		bitsEqual(t, "DgetrfStatic singular factors", a1, a2)
		if fz1 != fz2 {
			t.Fatalf("thresh=%g: firstZero %d vs seed %d", thresh, fz1, fz2)
		}
		if thresh <= 0 {
			if fz1 != 40 {
				t.Fatalf("fail mode firstZero = %d, want 40", fz1)
			}
		} else {
			if fz1 != -1 || np == 0 {
				t.Fatalf("perturb mode: firstZero=%d nperturbed=%d", fz1, np)
			}
		}
		if np != len(pcols) {
			t.Fatalf("thresh=%g: %d perturbations vs seed %d", thresh, np, len(pcols))
		}
		for i := 0; i < np; i++ {
			if pbuf[i] != pcols[i] {
				t.Fatalf("perturbed col %d vs seed %d", pbuf[i], pcols[i])
			}
		}
		for i := range ipiv1 {
			if ipiv1[i] != ipiv2[i] {
				t.Fatalf("ipiv[%d] = %d vs seed %d", i, ipiv1[i], ipiv2[i])
			}
		}
	}
}

// TestMicroKernelAsmMatchesGo pins the micro-kernel dispatch to the
// portable kernel and to the seed kernel on the same operands unpacked,
// across k depths, kept-column lists that are complete, empty or
// gapped, and data laced with exact zeros and negative zeros — on
// platforms without the assembly kernel every call runs the Go kernel.
// Each list runs four tiles: a −0-free C over a finite B, which the
// assembly takes; a C holding a random −0, and a −0 in a row whose A
// values are all +0 and whose B column carries no sign (the assembly's
// +0 products would flip it), both of which the assembly must decline
// untouched; and a B row holding Inf or NaN where a kept column has a
// zero lane, which gemmPacked marks non-finite (0·Inf = NaN would poison
// C). An empty list must leave C as it was.
func TestMicroKernelAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	lists := []struct {
		name string
		keep func(p int) bool
	}{
		{"all", func(int) bool { return true }},
		{"empty", func(int) bool { return false }},
		{"every third dropped", func(p int) bool { return p%3 != 1 }},
		{"random gaps", func(int) bool { return rng.Intn(2) == 0 }},
	}
	for _, kc := range []int{1, 2, 7, 128, 261} {
		pb := sparseRandMat(kc, gemmNR, rng)
		negC := sparseRandMat(gemmMR, gemmNR, rng)
		negC[rng.Intn(len(negC))] = math.Copysign(0, -1)
		plainC := withoutNegZero(sparseRandMat(gemmMR, gemmNR, rng))
		for _, l := range lists {
			var off []int32
			for p := 0; p < kc; p++ {
				if l.keep(p) {
					off = append(off, int32(8*gemmNR*p))
				}
			}
			nk := len(off)
			pa := sparseRandMat(gemmMR, nk+1, rng)

			r, j := rng.Intn(gemmMR), rng.Intn(gemmNR)
			zeroRowA := append([]float64(nil), pa...)
			for q := 0; q <= nk; q++ {
				zeroRowA[gemmMR*q+r] = 0
			}
			unsignedB := append([]float64(nil), pb...)
			for p := 0; p < kc; p++ {
				unsignedB[p*gemmNR+j] = math.Abs(unsignedB[p*gemmNR+j])
			}
			plantedC := append([]float64(nil), plainC...)
			plantedC[r*gemmNR+j] = math.Copysign(0, -1)

			poisonA := append([]float64(nil), pa...)
			poisonB := append([]float64(nil), pb...)
			if nk > 0 {
				q := rng.Intn(nk)
				poisonA[gemmMR*q+r] = 0
				poisonB[int(off[q])/8+j] = []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[rng.Intn(3)]
			}

			for _, tc := range []struct {
				name   string
				pa, pb []float64
				c0     []float64
				finite bool
			}{
				{"-0-free C", pa, pb, plainC, true},
				{"C with -0", pa, pb, negC, true},
				{"-0 over a zero A row", zeroRowA, unsignedB, plantedC, true},
				{"Inf/NaN in B", poisonA, poisonB, plainC, false},
			} {
				name := fmt.Sprintf("microKernel4x8 kc=%d %s, %s", kc, l.name, tc.name)
				c1 := append([]float64(nil), tc.c0...)
				microKernel4x8(nk, tc.pa, off, tc.pb, c1, gemmNR, tc.finite)
				c2 := append([]float64(nil), tc.c0...)
				microKernel4x8Go(nk, tc.pa, off, tc.pb, c2, gemmNR)
				bitsEqual(t, name+" vs Go", c1, c2)
				a := make([]float64, gemmMR*nk)
				b := make([]float64, nk*gemmNR)
				for q, o := range off {
					for i := 0; i < gemmMR; i++ {
						a[i*nk+q] = tc.pa[gemmMR*q+i]
					}
					copy(b[q*gemmNR:], tc.pb[int(o)/8:][:gemmNR])
				}
				c3 := append([]float64(nil), tc.c0...)
				seedDgemm(gemmMR, gemmNR, nk, 1, a, nk, b, gemmNR, 1, c3, gemmNR)
				bitsEqual(t, name+" vs seed", c1, c3)
				if nk == 0 {
					bitsEqual(t, name, c1, tc.c0)
				}
			}
		}
	}
}

// TestDgemmMaskFreeParity pins the packed path's tile dispatch to the
// seed kernel bit for bit: the AVX2 kernel's unmasked adds where it
// runs, and the Go fallback on every tile one of its two guards sends
// there. The assembly adds the ±0 products of zero A values instead of
// skipping them, which is exact only while B is finite and no
// accumulator is −0, so A is dense but for single zero lanes inside
// kept columns — every such lane is a skip the assembly does not make —
// and three cases run:
//
//   - a −0-free C and a finite, ±0-laced B: every tile in assembly;
//   - the same with one −0 C element per tile whose A row is +0 in
//     every column and whose B column carries no sign, so that adding
//     the +0 products instead of skipping them would turn it into +0:
//     the assembly must decline each tile to the Go kernel untouched;
//   - an Inf or NaN in a B row that meets a kept column with a zero lane
//     in every micro-panel, where adding 0·Inf = NaN instead of skipping
//     it would poison a C element: the whole panel goes to the Go kernel.
//
// The shapes cover every mr ∈ 1..4 × nr ∈ 1..8 edge tile and straddle
// the packMC and packKC block boundaries; every shape takes the packed
// path.
func TestDgemmMaskFreeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	var shapes [][3]int
	for mr := 1; mr <= gemmMR; mr++ {
		for nr := 1; nr <= gemmNR; nr++ {
			shapes = append(shapes, [3]int{2*gemmMR + mr, 2*gemmNR + nr, 64})
		}
	}
	shapes = append(shapes,
		[3]int{packMC + 3, 2*gemmNR + 5, 28},
		[3]int{2*packMC + 2, 28, 28},
		[3]int{3*gemmMR + 1, 3*gemmNR + 3, packKC + 1})
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		if m < gemmMR || n < gemmNR || m*n*k < packedGemmCutoff {
			t.Fatalf("shape %dx%dx%d does not reach gemmPacked", m, n, k)
		}
		check := func(name string, a, b, c0 []float64) {
			t.Helper()
			for _, alpha := range []float64{1, -1, 0.5} {
				c1 := append([]float64(nil), c0...)
				c2 := append([]float64(nil), c0...)
				Dgemm(m, n, k, alpha, a, k, b, n, 1, c1, n)
				seedDgemm(m, n, k, alpha, a, k, b, n, 1, c2, n)
				bitsEqual(t, fmt.Sprintf("Dgemm %dx%dx%d %s α=%g", m, n, k, name, alpha), c1, c2)
			}
		}

		a := laneZeroMat(m, k, -1, rng)
		b := zeroLacedMat(k, n, rng)
		c := withoutNegZero(zeroLacedMat(m, n, rng))
		check("-0-free C", a, b, c)

		for i0 := 0; i0 < m; i0 += gemmMR {
			rows := min(m-i0, gemmMR)
			if rows < 2 { // a lone zero row would drop every column
				continue
			}
			i := i0 + rng.Intn(rows)
			clear(a[i*k : (i+1)*k])
			for j0 := 0; j0 < n; j0 += gemmNR {
				j := j0 + rng.Intn(min(n-j0, gemmNR))
				c[i*n+j] = math.Copysign(0, -1)
				for p := 0; p < k; p++ {
					b[p*n+j] = math.Abs(b[p*n+j])
				}
			}
		}
		check("planted -0", a, b, c)

		for _, bad := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)} {
			p := rng.Intn(k)
			a := laneZeroMat(m, k, p, rng)
			b := zeroLacedMat(k, n, rng)
			b[p*n+rng.Intn(n)] = bad
			c := withoutNegZero(zeroLacedMat(m, n, rng))
			check(fmt.Sprintf("B[%d,·] = %g", p, bad), a, b, c)
		}
	}
}

// TestFinitePanel pins the scan that admits a packed B panel's tiles to
// the assembly micro-kernel: it may never call a panel with an Inf or
// NaN finite, and where it runs at all (it reports an all-zero panel
// finite) it must agree with math.IsInf/IsNaN. The panels hold one Inf or NaN at every
// position class (first, last, inside a vector) next to the extreme
// finite values, and include lengths the assembly cannot take.
func TestFinitePanel(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	want := func(x []float64) bool {
		for _, v := range x {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	scans := finitePanel(make([]float64, 8*gemmNR))
	edge := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0x1p-1022}
	bad := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001)}
	for _, n := range []int{0, 1, 7, 8, 9, 16, 24, 8 * 29, 8 * 257} {
		x := sparseRandMat(1, n, rng)
		for i := range x {
			if rng.Intn(4) == 0 {
				x[i] = edge[rng.Intn(len(edge))]
			}
		}
		check := func(name string) {
			t.Helper()
			got, w := finitePanel(x), want(x)
			if got && !w || scans && n > 0 && n%8 == 0 && got != w {
				t.Fatalf("n=%d %s: finitePanel %v, want %v", n, name, got, w)
			}
		}
		check("finite")
		for _, i := range []int{0, n - 1, n / 2, rng.Intn(max(n, 1))} {
			if i < 0 || i >= n {
				continue
			}
			for _, v := range bad {
				keep := x[i]
				x[i] = v
				check(fmt.Sprintf("x[%d] = %g", i, v))
				x[i] = keep
			}
		}
	}
}

// laneZeroMat draws a dense m×k matrix, then, in each gemmMR-row
// micro-panel, zeroes (as +0 or −0) one random lane of a random half of
// the columns and of column always (−1 for none): zero-skips inside
// columns packA keeps. A micro-panel with a single row gets no zero
// lane.
func laneZeroMat(m, k, always int, rng *rand.Rand) []float64 {
	a := make([]float64, m*k)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i0 := 0; i0 < m; i0 += gemmMR {
		rows := min(m-i0, gemmMR)
		if rows < 2 {
			continue
		}
		for p := 0; p < k; p++ {
			if p == always || rng.Intn(2) == 0 {
				a[(i0+rng.Intn(rows))*k+p] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
	}
	return a
}

// withoutNegZero replaces every −0 in x by +0 and returns x.
func withoutNegZero(x []float64) []float64 {
	for i, v := range x {
		if v == 0 {
			x[i] = 0
		}
	}
	return x
}

// TestDgemmZeroColumnParity pins the packed path's column dropping to
// the seed kernel bit for bit on block-sparse operands shaped like the
// factor's L blocks: A has columns that are zero in every row, columns
// zero within one micro-panel only, and whole 4-row bands of zeros
// (micro-panels that keep no column), on top of ~55 % scattered ±0.
// The rows of B that meet only all-zero columns of A hold Inf and NaN,
// so a dropped column that still contributed would poison C; C starts
// with −0 accumulators that adding +0 would flip. The shapes cover
// every mr ∈ 1..4 × nr ∈ 1..8 edge tile and straddle the packMC, packKC
// and packNC block boundaries; every shape takes the packed path.
func TestDgemmZeroColumnParity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var shapes [][3]int
	for mr := 1; mr <= gemmMR; mr++ {
		for nr := 1; nr <= gemmNR; nr++ {
			shapes = append(shapes, [3]int{2*gemmMR + mr, 2*gemmNR + nr, 64})
		}
	}
	for _, m := range []int{packMC + 3, 2*packMC + 2} {
		for _, n := range []int{gemmNR + 5, 4*gemmNR + 5} {
			for _, k := range []int{packKC - 1, packKC, packKC + 1} {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	shapes = append(shapes, [3]int{gemmMR + 3, packNC + 5, packKC + 1})
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		if m < gemmMR || n < gemmNR || m*n*k < packedGemmCutoff {
			t.Fatalf("shape %dx%dx%d does not reach gemmPacked", m, n, k)
		}
		a := zeroLacedMat(m, k, rng)
		dead := make([]bool, k) // zero in every row of A
		for p := range dead {
			dead[p] = rng.Intn(3) == 0
		}
		for i := 0; i < m; i++ {
			band := i / gemmMR
			for p := 0; p < k; p++ {
				// Rows of band 1 are all zero; band b ≥ 2 loses column
				// p when (p + b) % 4 == 0.
				if dead[p] || band == 1 || (band >= 2 && (p+band)%4 == 0) {
					a[i*k+p] = 0
				}
			}
		}
		b := zeroLacedMat(k, n, rng)
		for j := 0; j < n; j++ {
			poisonSkipped(b[j:], n, k, func(p int) bool { return dead[p] })
		}
		c0 := zeroLacedMat(m, n, rng)
		for _, alpha := range []float64{1, -1, 0.5} {
			for _, beta := range []float64{1, 0, -1} {
				c1 := append([]float64(nil), c0...)
				c2 := append([]float64(nil), c0...)
				Dgemm(m, n, k, alpha, a, k, b, n, beta, c1, n)
				seedDgemm(m, n, k, alpha, a, k, b, n, beta, c2, n)
				bitsEqual(t, fmt.Sprintf("Dgemm %dx%dx%d α=%g β=%g", m, n, k, alpha, beta), c1, c2)
			}
		}
	}
}

// zeroLacedMat draws normal values of which ~55 % are explicit zeros,
// half of them negative: the density of the explicit zeros amalgamated
// supernodes store, and the regime where a zero-skip decides the result.
func zeroLacedMat(m, n int, rng *rand.Rand) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		switch r := rng.Float64(); {
		case r < 0.275:
			a[i] = 0
		case r < 0.55:
			a[i] = math.Copysign(0, -1)
		default:
			a[i] = rng.NormFloat64()
		}
	}
	return a
}

// poisonSkipped writes Inf and NaN into the entries of the one-column
// operand x (stride ld) at the positions p where zero(p) holds: the
// products a seed kernel skips there are 0·Inf = NaN, so any kernel that
// adds them instead of skipping turns its result into NaN.
func poisonSkipped(x []float64, ld, rows int, zero func(p int) bool) {
	bad := []float64{math.Inf(1), math.NaN(), math.Inf(-1)}
	for p, q := 0, 0; p < rows; p++ {
		if zero(p) {
			x[p*ld] = bad[q%len(bad)]
			q++
		}
	}
}

// TestOneColumnBitwiseParity pins the n = 1 shapes of Dgemm and of both
// Dtrsm triangles to the seed kernels bit for bit: random m×1×k shapes
// (strided and not) with ~55 % explicit zeros, a −0 accumulator that
// adding +0 would flip, and Inf/NaN in B exactly where every coefficient
// is zero — the three places the exact-zero skip is observable.
func TestOneColumnBitwiseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for trial := 0; trial < 200; trial++ {
		m, k := 1+rng.Intn(70), rng.Intn(70)
		ld := 1 + rng.Intn(2) // ldb = ldc: a column of a wider panel
		a := zeroLacedMat(m, k, rng)
		for p := 0; p < k; p += 3 {
			for i := 0; i < m; i++ {
				a[i*k+p] = 0
			}
		}
		b := zeroLacedMat(k, ld, rng)
		poisonSkipped(b, ld, k, func(p int) bool { return p%3 == 0 })
		c0 := zeroLacedMat(m, ld, rng)
		c0[0] = math.Copysign(0, -1)
		for _, alpha := range []float64{1, -1, 0.5, 0} {
			for _, beta := range []float64{1, 0, -1} {
				c1 := append([]float64(nil), c0...)
				c2 := append([]float64(nil), c0...)
				Dgemm(m, 1, k, alpha, a, k, b, ld, beta, c1, ld)
				seedDgemm(m, 1, k, alpha, a, k, b, ld, beta, c2, ld)
				bitsEqual(t, fmt.Sprintf("Dgemm %dx1x%d ld=%d α=%g β=%g", m, k, ld, alpha, beta), c1, c2)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(90) // past NB: the blocked lower solve too
		ld := 1 + rng.Intn(2)
		tm := zeroLacedMat(m, m, rng)
		for i := 0; i < m; i++ {
			tm[i*m+i] = 1 + rng.Float64()
		}
		// Column p of each strict triangle is zero for p ≡ 1 (mod 4), so
		// the poisoned x[p] reaches no other row of the solution.
		for p := 1; p < m; p += 4 {
			for i := 0; i < m; i++ {
				if i != p {
					tm[i*m+p] = 0
				}
			}
		}
		b0 := zeroLacedMat(m, ld, rng)
		b0[0] = math.Copysign(0, -1)
		poisonSkipped(b0, ld, m, func(p int) bool { return p%4 == 1 })
		for _, lower := range []bool{true, false} {
			for _, unit := range []bool{true, false} {
				for _, alpha := range []float64{1, -1, 0.5} {
					b1 := append([]float64(nil), b0...)
					b2 := append([]float64(nil), b0...)
					Dtrsm(lower, unit, m, 1, alpha, tm, m, b1, ld)
					seedDtrsm(lower, unit, m, 1, alpha, tm, m, b2, ld)
					bitsEqual(t, fmt.Sprintf("Dtrsm lower=%v unit=%v m=%d ld=%d α=%g", lower, unit, m, ld, alpha), b1, b2)
				}
			}
		}
	}
}
