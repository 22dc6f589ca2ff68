package blas

import (
	"math"
	"math/rand"
	"testing"
)

// The satellite grid: every dimension straddles the register-tile and
// cache-block boundaries — 0, 1, gemmMR−1, gemmMR, gemmMR+1, gemmNR+3,
// packKC+5 — crossed with the α/β values that trigger the scale
// pre-pass's three branches and the early-out.
var (
	edgeDims   = []int{0, 1, gemmMR - 1, gemmMR, gemmMR + 1, gemmNR + 3, packKC + 5}
	edgeScales = []float64{0, 1, -1, 0.5}
)

// TestDgemmEdgeGrid checks Dgemm against the naive O(mnk) reference on
// the full dimension grid. The naive product A·B is computed once per
// shape; each (α, β) pair is then validated against α·(A·B) + β·C with
// a scaled tolerance.
func TestDgemmEdgeGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, m := range edgeDims {
		for _, n := range edgeDims {
			for _, k := range edgeDims {
				// BLAS contract: leading dimensions are ≥ max(1, cols),
				// so degenerate shapes get one padding column.
				lda, ldb := maxInt(k, 1), maxInt(n, 1)
				a := sparseRandMat(m, lda, rng)
				b := sparseRandMat(k, ldb, rng)
				c0 := sparseRandMat(m, ldb, rng)
				// One naive S = A·B per shape; α/β applied afterwards.
				s := make([]float64, m*ldb)
				naiveGemm(m, n, k, 1, a, lda, b, ldb, 0, s, ldb)
				tol := 1e-12 * float64(k+1)
				for _, alpha := range edgeScales {
					for _, beta := range edgeScales {
						c1 := append([]float64(nil), c0...)
						Dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c1, ldb)
						for i := 0; i < m; i++ {
							for j := 0; j < n; j++ {
								want := alpha*s[i*ldb+j] + beta*c0[i*ldb+j]
								if d := math.Abs(c1[i*ldb+j] - want); d > tol || math.IsNaN(d) {
									t.Fatalf("m=%d n=%d k=%d α=%g β=%g: C[%d,%d] = %g, want %g (Δ=%g)",
										m, n, k, alpha, beta, i, j, c1[i*ldb+j], want, d)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestDgemmEdgeGridBitwise pins the same grid bitwise to the seed
// kernel — the grid shapes cross the packed-path dispatch boundary in
// both directions, so this locks the dispatch itself down.
func TestDgemmEdgeGridBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, m := range edgeDims {
		for _, n := range edgeDims {
			for _, k := range edgeDims {
				lda, ldb := maxInt(k, 1), maxInt(n, 1)
				a := sparseRandMat(m, lda, rng)
				b := sparseRandMat(k, ldb, rng)
				c0 := sparseRandMat(m, ldb, rng)
				for _, alpha := range edgeScales {
					for _, beta := range edgeScales {
						c1 := append([]float64(nil), c0...)
						c2 := append([]float64(nil), c0...)
						Dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c1, ldb)
						seedDgemm(m, n, k, alpha, a, lda, b, ldb, beta, c2, ldb)
						bitsEqual(t, "Dgemm edge grid", c1, c2)
					}
				}
			}
		}
	}
}

// TestDtrsmEdgeGrid solves T·X = α·B on the grid and checks the
// residual of the reconstruction T·X against α·B, for both triangles
// and both diagonal modes.
func TestDtrsmEdgeGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, lower := range []bool{true, false} {
		for _, unit := range []bool{true, false} {
			for _, m := range edgeDims {
				for _, n := range edgeDims {
					ldt, ldb := maxInt(m, 1), maxInt(n, 1)
					tm := sparseRandMat(m, ldt, rng)
					for i := 0; i < m; i++ {
						tm[i*ldt+i] = 2 + rng.Float64() // well-conditioned
						for j := 0; j < m; j++ {
							if (lower && j > i) || (!lower && j < i) {
								tm[i*ldt+j] = 0
							}
						}
						if unit {
							tm[i*ldt+i] = 1
						}
					}
					b0 := sparseRandMat(m, ldb, rng)
					for _, alpha := range edgeScales {
						x := append([]float64(nil), b0...)
						Dtrsm(lower, unit, m, n, alpha, tm, ldt, x, ldb)
						// Reconstruct T·X and compare with α·B.
						tx := make([]float64, m*ldb)
						naiveGemm(m, n, m, 1, tm, ldt, x, ldb, 0, tx, ldb)
						// Forward substitution can grow the solution, so the
						// residual bound must scale with ‖X‖, not just ‖B‖.
						xmax := 1.0
						for i := 0; i < m; i++ {
							for j := 0; j < n; j++ {
								if v := math.Abs(x[i*ldb+j]); v > xmax {
									xmax = v
								}
							}
						}
						tol := 1e-12 * float64(m+1) * xmax
						for i := 0; i < m; i++ {
							for j := 0; j < n; j++ {
								want := alpha * b0[i*ldb+j]
								if d := math.Abs(tx[i*ldb+j] - want); d > tol || math.IsNaN(d) {
									t.Fatalf("lower=%v unit=%v m=%d n=%d α=%g: (T·X)[%d,%d] = %g, want %g",
										lower, unit, m, n, alpha, i, j, tx[i*ldb+j], want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestDgetrfStaticEdgeGrid pins DgetrfStatic to the unblocked seed
// kernel on the grid shapes (both fail and perturb mode) — the m=0 /
// n=0 / single-column degenerate shapes ride along.
func TestDgetrfStaticEdgeGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, m := range edgeDims {
		for _, n := range edgeDims {
			mn := m
			if n < mn {
				mn = n
			}
			for _, thresh := range []float64{0, 1e-8} {
				lda := maxInt(n, 1)
				a0 := sparseRandMat(m, lda, rng)
				a1 := append([]float64(nil), a0...)
				a2 := append([]float64(nil), a0...)
				ipiv1 := make([]int, mn)
				ipiv2 := make([]int, mn)
				pbuf := make([]int, mn)
				np, fz1 := DgetrfStatic(m, n, a1, lda, ipiv1, thresh, pbuf)
				pcols, fz2 := seedDgetf2Static(m, n, a2, lda, ipiv2, thresh)
				bitsEqual(t, "DgetrfStatic edge grid", a1, a2)
				if fz1 != fz2 || np != len(pcols) {
					t.Fatalf("m=%d n=%d thresh=%g: (np=%d, fz=%d) vs seed (np=%d, fz=%d)",
						m, n, thresh, np, fz1, len(pcols), fz2)
				}
				for i := 0; i < np; i++ {
					if pbuf[i] != pcols[i] {
						t.Fatalf("m=%d n=%d: perturbed col %d vs seed %d", m, n, pbuf[i], pcols[i])
					}
				}
				for i := range ipiv1 {
					if ipiv1[i] != ipiv2[i] {
						t.Fatalf("m=%d n=%d: ipiv[%d] = %d vs seed %d", m, n, i, ipiv1[i], ipiv2[i])
					}
				}
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
