// Race-detector stress test for the worker pools. The file is an
// external test package so it can drive the schedulers through the full
// numeric pipeline in internal/core (which imports sched) and check the
// structural DAG with internal/verify before executing on it.
//
// The paper's branch property guarantees that update tasks writing the
// same block column touch disjoint rows, so the parallel factorization
// must be bitwise identical to the serial one — not merely close. Run
// under `go test -race ./internal/sched/...` this doubles as the
// lock-discipline proof for the work-stealing executor.
package sched_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/verify"
)

func randomSquare(n int, density float64, rng *rand.Rand) *sparse.CSC {
	t := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		t.Add(i, i, 1+rng.Float64())
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				t.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return t.ToCSC()
}

func solveBitwise(t *testing.T, f *core.Factorization, n int) []float64 {
	t.Helper()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestWorkerPoolRaceStress(t *testing.T) {
	type system struct {
		name string
		a    *sparse.CSC
	}
	var systems []system
	for _, spec := range matgen.SmallSuite()[:3] {
		systems = append(systems, system{spec.Name, spec.Gen()})
	}
	rng := rand.New(rand.NewSource(20260804))
	for i := 0; i < 2; i++ {
		n := 60 + rng.Intn(60)
		systems = append(systems, system{
			fmt.Sprintf("random-n%d", n),
			randomSquare(n, 0.06, rng),
		})
	}

	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			t.Parallel()
			opts := core.DefaultOptions()
			opts.Workers = 1
			s, err := core.Analyze(sys.a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.VerifyDAG(s.Graph); err != nil {
				t.Fatal(err)
			}
			fSerial, err := core.FactorizeWith(s, sys.a)
			if err != nil {
				t.Fatal(err)
			}
			want := solveBitwise(t, fSerial, sys.a.NCols)

			for _, workers := range []int{2, 4, 8} {
				s.Opts.Workers = workers
				f, err := core.FactorizeWith(s, sys.a)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := solveBitwise(t, f, sys.a.NCols)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: x[%d] = %g, serial %g — parallel result is not bitwise identical",
							workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestAsyncParityRobustVariants extends the bitwise-parity sweep to the
// robustness corners of the suite, exercised through the async
// work-stealing engine at P = 1, 2, 4, 8:
//
//   - a near-singular system under PivotPerturb must produce bitwise
//     identical factors (checked through Solve) and the identical
//     perturbation record at every worker count;
//   - a NaN-poisoned input must abort with ErrNonFinite wrapped in a
//     *sched.TaskError at every worker count — the non-finite guard
//     survives the stealing engine's arbitrary claim orders.
func TestAsyncParityRobustVariants(t *testing.T) {
	procsSweep := []int{1, 2, 4, 8}

	t.Run("near-singular-perturb", func(t *testing.T) {
		a, _, _ := matgen.NearSingular(8, 10, 21)
		opts := core.DefaultOptions()
		opts.Workers = 1
		opts.PivotPolicy = core.PivotPerturb
		s, err := core.Analyze(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.FactorizeWith(s, a)
		if err != nil {
			t.Fatal(err)
		}
		if ref.PivotPerturbations() == 0 {
			t.Fatal("expected pivot perturbations on the near-singular system")
		}
		want := solveBitwise(t, ref, a.NCols)
		wantPerturbed := fmt.Sprint(ref.PerturbedColumns())

		for _, workers := range procsSweep {
			s.Opts.Workers = workers
			f, err := core.FactorizeWith(s, a)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if f.PivotPerturbations() != ref.PivotPerturbations() {
				t.Fatalf("workers=%d: %d perturbations, serial %d",
					workers, f.PivotPerturbations(), ref.PivotPerturbations())
			}
			if got := fmt.Sprint(f.PerturbedColumns()); got != wantPerturbed {
				t.Fatalf("workers=%d: perturbed columns %s, serial %s", workers, got, wantPerturbed)
			}
			got := solveBitwise(t, f, a.NCols)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: x[%d] = %g, serial %g — not bitwise identical",
						workers, i, got[i], want[i])
				}
			}
		}
	})

	t.Run("nan-poisoned-input", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20260808))
		a := randomSquare(80, 0.06, rng)
		// Poison one structural entry of the input so the non-finite
		// guard must trip during the numeric phase.
		a.Val[len(a.Val)/2] = math.NaN()
		for _, workers := range procsSweep {
			opts := core.DefaultOptions()
			opts.Workers = workers
			s, err := core.Analyze(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, err = core.FactorizeWith(s, a)
			if !errors.Is(err, core.ErrNonFinite) {
				t.Fatalf("workers=%d: err = %v, want ErrNonFinite", workers, err)
			}
			var te *sched.TaskError
			if !errors.As(err, &te) {
				t.Fatalf("workers=%d: err = %v, want *sched.TaskError", workers, err)
			}
		}
	})
}
