package core

import (
	"math"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// componentwiseBackwardError computes the Oettli–Prager backward error
// ω = max_i |Ax−b|_i / (|A|·|x| + |b|)_i, the componentwise measure the
// accuracy bound below is stated in.
func componentwiseBackwardError(a *sparse.CSC, x, b []float64) float64 {
	n := len(b)
	ax := make([]float64, n)
	a.MulVec(x, ax)
	den := make([]float64, n)
	for j := 0; j < a.NCols; j++ {
		rows, vals := a.Col(j)
		xa := math.Abs(x[j])
		for k, i := range rows {
			den[i] += math.Abs(vals[k]) * xa
		}
	}
	w := 0.0
	for i := 0; i < n; i++ {
		r := math.Abs(ax[i] - b[i])
		d := den[i] + math.Abs(b[i])
		if d == 0 {
			if r != 0 {
				return math.Inf(1)
			}
			continue
		}
		if q := r / d; q > w {
			w = q
		}
	}
	return w
}

// TestErrorBoundSmallSuite checks accuracy, not reproducibility: the
// parity and determinism suites pin the factors' bits, and this suite
// checks that those bits are a good answer. Every SmallSuite matrix,
// factored under PivotPerturb at every worker count, must satisfy the
// componentwise backward-error bound ω ≤ c·ε·κ₁(A) after one step of
// iterative refinement.
func TestErrorBoundSmallSuite(t *testing.T) {
	for _, spec := range matgen.SmallSuite() {
		a := spec.Gen()
		s, err := Analyze(a, nil)
		if err != nil {
			t.Fatalf("%s: analyze: %v", spec.Name, err)
		}
		n := a.NCols
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		b := make([]float64, n)
		a.MulVec(ones, b)
		for _, workers := range []int{1, 4, 8} {
			nopts := &NumericOptions{
				Workers:     workers,
				PivotPolicy: PivotPerturb,
			}
			f, err := FactorizeWithOpts(s, a, nopts)
			if err != nil {
				t.Fatalf("%s P=%d: factorize: %v", spec.Name, workers, err)
			}
			x, _, _, err := f.SolveRefined(a, b, 1, 0)
			if err != nil {
				t.Fatalf("%s P=%d: solve: %v", spec.Name, workers, err)
			}
			kappa, err := f.CondEstimate1(a)
			if err != nil {
				t.Fatalf("%s P=%d: cond estimate: %v", spec.Name, workers, err)
			}
			if kappa < 1 {
				kappa = 1
			}
			omega := componentwiseBackwardError(a, x, b)
			bound := 100 * float64(n) * 0x1p-52 * kappa
			if !(omega <= bound) {
				t.Fatalf("%s P=%d: componentwise backward error %g exceeds c·ε·κ = %g (κ₁ ≈ %g)",
					spec.Name, workers, omega, bound, kappa)
			}
		}
	}
}
