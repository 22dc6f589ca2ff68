package blas

import (
	"math/rand"
	"testing"
)

func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDswap(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	Dswap(2, a, 1, b, 1)
	if a[0] != 3 || a[1] != 4 || b[0] != 1 || b[1] != 2 {
		t.Fatalf("Dswap: a = %v, b = %v", a, b)
	}
	// Strided: exchange column 0 of a 2×2 row-major block with a vector.
	m := []float64{1, 2, 3, 4}
	v := []float64{7, 8}
	Dswap(2, m, 2, v, 1)
	if m[0] != 7 || m[2] != 8 || m[1] != 2 || m[3] != 4 || v[0] != 1 || v[1] != 3 {
		t.Fatalf("strided Dswap: m = %v, v = %v", m, v)
	}
}
