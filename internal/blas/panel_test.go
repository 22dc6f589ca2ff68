package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDgemmPanelParity pins DgemmPanel to the seed kernel bit for bit:
// an operand is packed once, and every row window [r0, r0+m) of it is
// multiplied into C and compared with seedDgemm on the same rows of the
// unpacked operand. r0 runs over every residue mod gemmMR, so windows
// start and end inside a micro-panel and take the straddling edge tile,
// whose rows outside the window must be discarded. A is zero-laced with
// whole all-zero 4-lane columns (dropped at packing) and columns that
// are zero in one lane only (kept for the other lanes). Three regimes:
// a −0-free C; a −0 planted in C on a row whose A row is zero; and a row
// p of B that is all Inf or NaN, where column p of A is zero exactly on
// the window's rows — so a straddling micro-panel keeps column p for its
// outside rows, and only the skip and the discard keep the Inf/NaN out
// (this regime packs once per window).
func TestDgemmPanelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 32}
	const rows = 2*gemmMR + 37 + gemmMR // room for every r0 ∈ [4, 8) with every m
	pack := func(alpha float64, a []float64, k int) *Panel {
		vals, ints := PanelSize(rows, k)
		p := &Panel{M: rows, K: k, Vals: make([]float64, vals), Ints: make([]int32, ints)}
		p.Pack(alpha, a, k)
		return p
	}
	for _, k := range []int{1, 6, 28, 32} {
		for _, alpha := range []float64{-1, 0.5} {
			for _, regime := range []string{"-0-free C", "planted -0", "Inf/NaN row of B"} {
				a := laneZeroMat(rows, k, -1, rng)
				dead := rng.Intn(k)
				for i0 := 0; i0 < rows; i0 += gemmMR {
					if rng.Intn(2) == 0 { // an all-zero 4-lane column
						for r := i0; r < min(i0+gemmMR, rows); r++ {
							a[r*k+dead] = math.Copysign(0, float64(rng.Intn(2))-0.5)
						}
					}
				}
				if regime == "planted -0" {
					clear(a[13*k : 14*k]) // row 13 contributes nothing
				}
				p := pack(alpha, a, k)
				for _, n := range ns {
					b := zeroLacedMat(k, n, rng)
					c0 := withoutNegZero(zeroLacedMat(rows, n, rng))
					if regime == "planted -0" {
						c0[13*n+rng.Intn(n)] = math.Copysign(0, -1)
					}
					if regime == "Inf/NaN row of B" {
						bad := []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[rng.Intn(3)]
						for j := 0; j < n; j++ {
							b[dead*n+j] = bad
						}
					}
					for _, m := range ms {
						for r0 := gemmMR; r0 < 2*gemmMR; r0++ {
							if regime == "Inf/NaN row of B" {
								for r := 0; r < rows; r++ {
									a[r*k+dead] = 1
									if r >= r0 && r < r0+m {
										a[r*k+dead] = 0
									}
								}
								p = pack(alpha, a, k)
							}
							c1 := append([]float64(nil), c0[r0*n:(r0+m)*n]...)
							c2 := append([]float64(nil), c1...)
							DgemmPanel(p, r0, m, n, b, n, c1, n)
							seedDgemm(m, n, k, alpha, a[r0*k:], k, b, n, 1, c2, n)
							bitsEqual(t, fmt.Sprintf("DgemmPanel rows [%d,%d) n=%d k=%d α=%g %s", r0, r0+m, n, k, alpha, regime), c1, c2)
						}
					}
				}
			}
		}
	}
}

// TestPanelSize pins the storage contract the packed slab of a
// factorization relies on: values fit in four times the ints, so one
// offset lays out panels of any shape in two slabs without overlap, and
// the ints hold the offsets and the kept counts of one column block.
func TestPanelSize(t *testing.T) {
	for _, m := range []int{0, 1, 4, 5, 37} {
		for _, k := range []int{0, 1, 31, 32} {
			vals, ints := PanelSize(m, k)
			nmp := (m + gemmMR - 1) / gemmMR
			if vals != gemmMR*nmp*k || vals > 4*ints || ints != nmp*(k+1) {
				t.Fatalf("PanelSize(%d, %d) = %d, %d", m, k, vals, ints)
			}
		}
	}
}

// TestAllFinite pins the exported scan to math.IsInf/IsNaN on every
// length around the vector width, with the bad value at every position
// class: in the vector prefix and in the scalar tail.
func TestAllFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 8*29 + 5} {
		x := sparseRandMat(1, n, rng)
		if !AllFinite(x) {
			t.Fatalf("n=%d: finite slice reported non-finite", n)
		}
		for i := 0; i < n; i++ {
			for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001)} {
				keep := x[i]
				x[i] = v
				if AllFinite(x) {
					t.Fatalf("n=%d: x[%d] = %g reported finite", n, i, v)
				}
				x[i] = keep
			}
		}
	}
}

// TestPanelPackRejectsWideK pins the width check of Pack: an operand
// wider than one packed column block (packKC) panics instead of being
// packed past its storage.
func TestPanelPackRejectsWideK(t *testing.T) {
	const m, k = 4, packKC + 1
	vals, ints := PanelSize(m, k)
	p := Panel{M: m, K: k, Vals: make([]float64, vals), Ints: make([]int32, ints)}
	defer func() {
		if recover() == nil {
			t.Fatalf("Pack of a %d×%d operand did not panic", m, k)
		}
	}()
	p.Pack(-1, make([]float64, m*k), k)
}
