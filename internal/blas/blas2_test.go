package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The BLAS-2 kernels of the numeric phase — the column-major panel LU
// (getrfCols + luUpdate) and the row-resident triangle solve (trsm) —
// pinned bit for bit to the seed loops where the masks and the skip are
// observable, and their assembly pinned to the Go twins.
// TestDgetrfStaticBitwiseParity covers the F(K) shapes.

// TestDgetrfStaticNonFiniteParity pins the masked rank-1 update where a
// mask is observable. In each panel the pivot row of some steps holds
// +Inf, −Inf and NaN to the right of the pivot, and the rows below hold
// zero multipliers (+0 and −0) over −0 targets: the seed skips those
// rows, so 0·Inf = NaN must not reach them and −0 must stay −0. Other
// rows carry NaN multipliers, which the mask must keep.
func TestDgetrfStaticNonFiniteParity(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	bad := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, w := range []int{2, 5, 8, 9, 17, 28, 32} {
		for _, m := range []int{w, w + 3, 61, 330} {
			a := zeroLacedMat(m, w, rng)
			// Step j pivots on row j (a dominant diagonal), whose entries
			// right of the pivot are non-finite in every third column.
			for j := 0; j < w && j < m; j += 2 {
				a[j*w+j] = 1e6 * float64(1+j)
				for c := j + 1; c < w; c++ {
					if (c+j)%3 == 0 {
						a[j*w+c] = bad[(c+j)%len(bad)]
					}
				}
				// Rows below: a zero multiplier over −0 targets, or a NaN one.
				for i := j + 1; i < m; i++ {
					switch rng.Intn(4) {
					case 0, 1:
						a[i*w+j] = math.Copysign(0, float64(rng.Intn(2))-0.5)
						for c := j + 1; c < w; c++ {
							if rng.Intn(2) == 0 {
								a[i*w+c] = math.Copysign(0, -1)
							}
						}
					case 2:
						if rng.Intn(8) == 0 {
							a[i*w+j] = math.NaN()
						}
					}
				}
			}
			for _, thresh := range []float64{0, 1e-8} {
				checkGetrfParity(t, fmt.Sprintf("DgetrfStatic non-finite %dx%d thresh=%g", m, w, thresh), m, w, a, thresh)
			}
		}
	}
}

// TestDtrsmRunShapes pins the row-resident triangle solve to the seed
// loop on the U(K,J) shapes, m = w_K and n = w_J up to 32, and past one
// 32-column slab, for both triangles and diagonal modes, on ±0-laced
// triangles (so the T[i,p] == 0 skip decides), B with −0 entries and an
// Inf and a NaN behind skipped coefficients, and ldb > n with sentinels
// in the gap that the masked tail must not write.
func TestDtrsmRunShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	sentinel := math.Float64frombits(0x7ff4dead0000beef) // a signalling NaN no kernel computes
	for m := 1; m <= 32; m++ {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 28, 29, 31, 32, 33, 45, 70} {
			ldb := n + 3
			tm := zeroLacedMat(m, m, rng)
			for i := 0; i < m; i++ {
				tm[i*m+i] = 1 + rng.Float64()
			}
			b0 := zeroLacedMat(m, ldb, rng)
			for i := 0; i < m; i++ {
				for j := n; j < ldb; j++ {
					b0[i*ldb+j] = sentinel
				}
			}
			// Column p ≡ 2 (mod 5) of each strict triangle is zero, so a
			// non-finite value in row p of B reaches no other row.
			for p := 2; p < m; p += 5 {
				for i := 0; i < m; i++ {
					if i != p {
						tm[i*m+p] = 0
					}
				}
				b0[p*ldb+rng.Intn(n)] = []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[p%3]
			}
			for _, lower := range []bool{true, false} {
				for _, unit := range []bool{true, false} {
					for _, alpha := range []float64{1, -1} {
						b1 := append([]float64(nil), b0...)
						b2 := append([]float64(nil), b0...)
						Dtrsm(lower, unit, m, n, alpha, tm, m, b1, ldb)
						seedDtrsm(lower, unit, m, n, alpha, tm, m, b2, ldb)
						bitsEqual(t, fmt.Sprintf("Dtrsm %dx%d ldb=%d lower=%v unit=%v α=%g", m, n, ldb, lower, unit, alpha), b1, b2)
					}
				}
			}
		}
	}
}

// TestLUUpdateAsmMatchesGo runs every step of the column-major panel LU
// through luUpdate (the assembly where the CPU has it) and luUpdateGo
// on the same column-major panel and demands the same rows 0…m−1 of
// every column after each step: zero-laced values with zero and NaN
// multipliers meeting Inf/NaN and −0, every width up to 32, and row
// counts that leave 1…4 rows in the last vector.
func TestLUUpdateAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for n := 1; n <= 32; n++ {
		for _, m := range []int{n, n + 1, n + 2, n + 3, 64, 67, 330} {
			ld := luLD(m)
			c1 := make([]float64, ld*n)
			for j := 0; j < n; j++ {
				copy(c1[j*ld:], zeroLacedMat(m, 1, rng))
			}
			for k := 0; k < m*n/7; k++ {
				c1[rng.Intn(n)*ld+rng.Intn(m)] = []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[k%3]
			}
			c2 := append([]float64(nil), c1...)
			for j := 0; j < min(m, n); j++ {
				inv := 1 / (1 + rng.Float64())
				luUpdate(m, n, c1, ld, j, inv)
				luUpdateGo(m, n, c2, ld, j, inv)
				for c := 0; c < n; c++ {
					bitsEqual(t, fmt.Sprintf("luUpdate %dx%d step %d column %d", m, n, j, c), c1[c*ld:c*ld+m], c2[c*ld:c*ld+m])
				}
			}
		}
	}
}

// TestTrsmAsmMatchesGo pins trsm (the assembly where the CPU has it) to
// trsmGo on every slab width 1…32 and triangle order up to 40, with
// ±0-laced triangles holding Inf and NaN coefficients and B holding −0,
// Inf and NaN, and ldb > n so that a write past the slab would show.
func TestTrsmAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	bad := []float64{math.Inf(1), math.NaN(), math.Inf(-1)}
	for n := 1; n <= trsmNB; n++ {
		for _, m := range []int{1, 2, 3, 5, 8, 17, 32, 40} {
			ldt, ldb := m+1, n+2
			tm := zeroLacedMat(m, ldt, rng)
			for i := 0; i < m; i++ {
				tm[i*ldt+i] = 1 + rng.Float64()
			}
			b0 := zeroLacedMat(m, ldb, rng)
			for k := 0; k < 3; k++ {
				tm[rng.Intn(m)*ldt+rng.Intn(m)] = bad[k]
				b0[rng.Intn(m)*ldb+rng.Intn(n)] = bad[k]
			}
			for _, lower := range []bool{true, false} {
				for _, unit := range []bool{true, false} {
					b1 := append([]float64(nil), b0...)
					b2 := append([]float64(nil), b0...)
					trsm(lower, unit, m, n, tm, ldt, b1, ldb)
					trsmGo(lower, unit, m, n, tm, ldt, b2, ldb)
					bitsEqual(t, fmt.Sprintf("trsm %dx%d lower=%v unit=%v", m, n, lower, unit), b1, b2)
				}
			}
		}
	}
}

// TestPivotRowAsmMatchesGo pins pivotRow (the assembly where the CPU has
// it) to pivotRowGo: the same row and the same magnitude bits, on
// columns drawn from a few magnitudes so that ties are common, with ±0,
// ±Inf and NaN — NaN also in the pivot row — every start row j, and the
// spare rows below m holding ±0 or NaN as luUpdate leaves them.
func TestPivotRowAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 0.5, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, m := range []int{1, 2, 3, 4, 5, 8, 9, 31, 64, 330} {
		for trial := 0; trial < 20; trial++ {
			col := make([]float64, luLD(m))
			for i := range col {
				if i < m {
					col[i] = vals[rng.Intn(len(vals)-trial%3*2)] // some trials draw no Inf or NaN
				} else {
					col[i] = []float64{0, math.Copysign(0, -1), math.NaN()}[rng.Intn(3)]
				}
			}
			for j := 0; j < m; j++ {
				p1, b1 := pivotRow(col, j, m)
				p2, b2 := pivotRowGo(col, j, m)
				if p1 != p2 || math.Float64bits(b1) != math.Float64bits(b2) {
					t.Fatalf("m=%d j=%d column %v: pivotRow (%d, %v), Go (%d, %v)", m, j, col[:m], p1, b1, p2, b2)
				}
			}
		}
	}
}

// TestTransposeAsmMatchesGo pins transpose (the assembly on whole 4×4
// tiles where the CPU has it) to transposeGo on every shape with rows
// and columns in 1…13, and on a tall panel and its transpose back, with
// leading dimensions wider than the rows and sentinels in the gaps.
func TestTransposeAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	sentinel := math.Float64frombits(0x7ff4dead0000beef)
	shapes := [][2]int{{330, 28}, {28, 330}, {416, 29}}
	for r := 1; r <= 13; r++ {
		for c := 1; c <= 13; c++ {
			shapes = append(shapes, [2]int{r, c})
		}
	}
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		lds, ldd := cols+3, rows+5
		src := zeroLacedMat(rows, lds, rng)
		d1 := make([]float64, cols*ldd)
		for i := range d1 {
			d1[i] = sentinel
		}
		d2 := append([]float64(nil), d1...)
		transpose(rows, cols, src, lds, d1, ldd)
		transposeGo(rows, cols, 0, 0, src, lds, d2, ldd)
		bitsEqual(t, fmt.Sprintf("transpose %dx%d", rows, cols), d1, d2)
	}
}
