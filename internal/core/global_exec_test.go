package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// factorizeTaskLevel is FactorizeWithOpts with task-level seeding
// (sched.RunOptions.Owners nil): the initially ready tasks are dealt
// round-robin by priority instead of to their block column's owner, so
// from the first claim on tasks of one destination column run on
// different workers. Only tests reach this seeding; it proves the
// numeric result does not depend on placement.
func factorizeTaskLevel(s *Symbolic, a *sparse.CSC, nopts *NumericOptions) (*Factorization, error) {
	eff := resolveNumOpts(s, nopts)
	f, err := newFactorization(s, a, eff)
	if err != nil {
		return nil, err
	}
	prio, err := s.Graph.BottomLevels(s.Costs.TaskFlops)
	if err != nil {
		return nil, err
	}
	if err := sched.Run(s.Graph, sched.RunOptions{Procs: eff.Workers, Prio: prio}, f.runTask); err != nil {
		return nil, err
	}
	return f, nil
}

// Exercises concurrent same-column writes (disjoint rows) under
// task-level seeding and the race detector, and checks bitwise
// agreement with the owner-mapped factorization.
func TestTaskLevelSeedingMatchesOwnerMapped(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	a := randomSystem(80, 0.07, rng)
	opts := DefaultOptions()
	opts.Workers = 4
	s, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := FactorizeWith(s, a)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := factorizeTaskLevel(s, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range f1.cols {
		d1, d2 := f1.cols[k].data, f2.cols[k].data
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("block column %d differs at %d", k, i)
			}
		}
	}
}

func solveFixedRHS(t *testing.T, f *Factorization) []float64 {
	t.Helper()
	b := make([]float64, f.S.N)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestTaskLevelSeedingParity is the task-level arm of
// sched.TestWorkerPoolRaceStress and TestAsyncParityRobustVariants (it
// lives here because the seeding is reachable only through the
// unexported task body): on generated and random systems, at P = 1, 2, 4,
// 8, the solve through a task-level-seeded factorization is bitwise the
// serial one; a near-singular system under PivotPerturb keeps the
// identical perturbation record; a NaN-poisoned input aborts with
// ErrNonFinite in a *sched.TaskError.
func TestTaskLevelSeedingParity(t *testing.T) {
	type system struct {
		name   string
		a      *sparse.CSC
		policy PivotPolicy
	}
	var systems []system
	for _, spec := range matgen.SmallSuite()[:3] {
		systems = append(systems, system{spec.Name, spec.Gen(), PivotFail})
	}
	rng := rand.New(rand.NewSource(20260804))
	for i := 0; i < 2; i++ {
		n := 60 + rng.Intn(60)
		systems = append(systems, system{fmt.Sprintf("random-n%d", n), randomSystem(n, 0.06, rng), PivotFail})
	}
	nearSingular, _, _ := matgen.NearSingular(8, 10, 21)
	systems = append(systems, system{"near-singular-perturb", nearSingular, PivotPerturb})

	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions()
			opts.PivotPolicy = sys.policy
			s, err := Analyze(sys.a, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := FactorizeWith(s, sys.a)
			if err != nil {
				t.Fatal(err)
			}
			if sys.policy == PivotPerturb && ref.PivotPerturbations() == 0 {
				t.Fatal("expected pivot perturbations on the near-singular system")
			}
			want := solveFixedRHS(t, ref)
			wantPerturbed := fmt.Sprint(ref.PerturbedColumns())
			for _, workers := range []int{1, 2, 4, 8} {
				f, err := factorizeTaskLevel(s, sys.a, &NumericOptions{Workers: workers, PivotPolicy: sys.policy})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := fmt.Sprint(f.PerturbedColumns()); got != wantPerturbed {
					t.Fatalf("workers=%d: perturbed columns %s, serial %s", workers, got, wantPerturbed)
				}
				got := solveFixedRHS(t, f)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: x[%d] = %g, serial %g — parallel result is not bitwise identical",
							workers, i, got[i], want[i])
					}
				}
			}
		})
	}

	t.Run("nan-poisoned-input", func(t *testing.T) {
		a := randomSystem(80, 0.06, rand.New(rand.NewSource(20260808)))
		a.Val[len(a.Val)/2] = math.NaN()
		s, err := Analyze(a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			_, err := factorizeTaskLevel(s, a, &NumericOptions{Workers: workers})
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("workers=%d: err = %v, want ErrNonFinite", workers, err)
			}
			var te *sched.TaskError
			if !errors.As(err, &te) {
				t.Fatalf("workers=%d: err = %v, want *sched.TaskError", workers, err)
			}
		}
	})
}
