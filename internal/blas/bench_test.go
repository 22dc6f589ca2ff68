package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkDgemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 32, 64, 128, 256} {
		a := randMat(n, n, rng)
		bb := randMat(n, n, rng)
		c := randMat(n, n, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * n))
			for i := 0; i < b.N; i++ {
				Dgemm(n, n, n, 1, a, n, bb, n, 1, c, n)
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
		})
	}
}

func BenchmarkDgemmSkinny(b *testing.B) {
	// The shapes the supernodal update actually uses: tall-skinny panels
	// times small blocks.
	rng := rand.New(rand.NewSource(2))
	for _, shape := range [][3]int{{256, 8, 8}, {512, 16, 16}, {1024, 32, 32}} {
		m, n, k := shape[0], shape[1], shape[2]
		a := randMat(m, k, rng)
		bb := randMat(k, n, rng)
		c := randMat(m, n, rng)
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Dgemm(m, n, k, -1, a, k, bb, n, 1, c, n)
			}
		})
	}
}

func BenchmarkDgemmUpdateShapes(b *testing.B) {
	// The packed shapes the numeric phase's update(K,J) tasks run,
	// flop-weighted: m rows of an L block against a k = w_K by n = w_J
	// U block, C -= A·B. A is zero-laced like an amalgamated L block and
	// C holds no −0, so every tile runs in the AVX2 bitwise kernel.
	rng := rand.New(rand.NewSource(10))
	for _, m := range []int{64, 128, 192} {
		for _, w := range []int{24, 26, 28, 32} {
			a := zeroLacedMat(m, w, rng)
			bb := randMat(w, w, rng)
			c := withoutNegZero(randMat(m, w, rng))
			b.Run(fmt.Sprintf("%dx%dx%d", m, w, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Dgemm(m, w, w, -1, a, w, bb, w, 1, c, w)
				}
				flops := 2 * float64(m) * float64(w) * float64(w)
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
			})
		}
	}
}

func BenchmarkDtrsm(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 64, 128} {
		t := randMat(n, n, rng)
		for i := 0; i < n; i++ {
			t[i*n+i] += float64(n)
		}
		x := randMat(n, n, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Dtrsm(true, true, n, n, 1, t, n, x, n)
			}
		})
	}
}

func BenchmarkDgetrf(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{32, 128, 256} {
		orig := randMat(n, n, rng)
		a := make([]float64, n*n)
		ipiv := make([]int, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, orig)
				if err := Dgetrf(n, n, a, n, ipiv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDgetrfStatic(b *testing.B) {
	// The panel factorization on the tall, narrow panel shapes the
	// supernodal numeric phase produces (at most 32 columns).
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{256, 8}, {512, 16}, {1024, 32}} {
		m, n := shape[0], shape[1]
		orig := randMat(m, n, rng)
		a := make([]float64, m*n)
		ipiv := make([]int, n)
		b.Run(fmt.Sprintf("%dx%d", m, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, orig)
				if _, fz := DgetrfStatic(m, n, a, n, ipiv, 0, nil); fz >= 0 {
					b.Fatalf("zero pivot at %d", fz)
				}
			}
			flops := 2*float64(m)*float64(n)*float64(n) - 2.0/3.0*float64(n)*float64(n)*float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
		})
	}
}

func BenchmarkDgemv(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	a := randMat(n, n, rng)
	x := randVec(n, rng)
	y := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemv(false, n, n, 1, a, n, x, 0, y)
	}
}

func BenchmarkDgemmOneColumn(b *testing.B) {
	// The m×1×k updates of a width-1 target column in the
	// factorization, on zero-laced blocks.
	rng := rand.New(rand.NewSource(8))
	for _, shape := range [][2]int{{3, 3}, {20, 6}, {64, 32}} {
		m, k := shape[0], shape[1]
		a := zeroLacedMat(m, k, rng)
		x := randVec(k, rng)
		c := randVec(m, rng)
		b.Run(fmt.Sprintf("%dx1x%d", m, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Dgemm(m, 1, k, -1, a, k, x, 1, 1, c, 1)
			}
		})
	}
}

func BenchmarkDtrsmOneColumn(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range []int{3, 6, 32} {
		t := zeroLacedMat(m, m, rng)
		for i := 0; i < m; i++ {
			t[i*m+i] = 1 + rng.Float64()
		}
		x0 := randVec(m, rng)
		x := make([]float64, m)
		for _, lower := range []bool{true, false} {
			b.Run(fmt.Sprintf("m=%d/lower=%v", m, lower), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(x, x0) // repeated in-place solves would overflow
					Dtrsm(lower, false, m, 1, 1, t, m, x, 1)
				}
			})
		}
	}
}
