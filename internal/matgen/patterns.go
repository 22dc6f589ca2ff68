package matgen

import (
	"fmt"
	"math/rand"

	"repro/internal/sparse"
)

// PatternCase is one generated input of the differential and property
// tests.
type PatternCase struct {
	Name string
	A    *sparse.CSC
}

// GenPatterns returns one seeded pattern of every family the
// differential and property tests run on, each square with a zero-free
// diagonal and of order at most 150: uniformly random, banded with holes,
// arrowhead (dense border rows and columns), block upper triangular (many
// eforest trees), and random with runs of duplicated columns (identical
// structures, which make rows merge early and supernodes wide). Only the
// pattern is meant: the values are small positive integers.
func GenPatterns(seed int64) []PatternCase {
	rng := rand.New(rand.NewSource(seed))
	order := func() int { return 20 + rng.Intn(131) }
	build := func(name string, n int, fill func(add func(i, j int))) PatternCase {
		t := sparse.NewTriplet(n, n)
		for i := 0; i < n; i++ {
			t.Add(i, i, 1)
		}
		fill(func(i, j int) {
			if i != j {
				t.Add(i, j, 1)
			}
		})
		return PatternCase{Name: fmt.Sprintf("%s/seed%d/n%d", name, seed, n), A: t.ToCSC()}
	}
	var cases []PatternCase

	n := order()
	cases = append(cases, build("random", n, func(add func(i, j int)) {
		for k := 0; k < 3*n; k++ {
			add(rng.Intn(n), rng.Intn(n))
		}
	}))

	n = order()
	cases = append(cases, build("banded", n, func(add func(i, j int)) {
		band := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			for j := max(0, i-band); j <= min(n-1, i+band); j++ {
				if rng.Float64() < 0.7 {
					add(i, j)
				}
			}
		}
	}))

	n = order()
	cases = append(cases, build("arrowhead", n, func(add func(i, j int)) {
		border := 1 + rng.Intn(3)
		for b := 0; b < border; b++ {
			// Dense rows and columns at either end of the order.
			at := b
			if rng.Intn(2) == 0 {
				at = n - 1 - b
			}
			for k := 0; k < n; k++ {
				add(at, k)
				add(k, at)
			}
		}
		for k := 0; k < n/2; k++ {
			add(rng.Intn(n), rng.Intn(n))
		}
	}))

	n = order()
	cases = append(cases, build("blocktri", n, func(add func(i, j int)) {
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(12))
			for i := lo; i < hi; i++ {
				for j := lo; j < hi; j++ {
					if rng.Float64() < 0.4 {
						add(i, j)
					}
				}
				// Couplings to later blocks only: above the block diagonal.
				for k := 0; k < 2 && hi < n; k++ {
					add(i, hi+rng.Intn(n-hi))
				}
			}
			lo = hi
		}
	}))

	n = order()
	cases = append(cases, build("dupcols", n, func(add func(i, j int)) {
		base := make([][]int, n)
		for j := range base {
			for k := 0; k < 3; k++ {
				base[j] = append(base[j], rng.Intn(n))
			}
		}
		for j := 0; j < n; j++ {
			src := j
			if j > 0 && rng.Float64() < 0.5 {
				src = j - 1 - rng.Intn(min(j, 4)) // copy a near neighbour's column
				base[j] = base[src]
			}
			for _, i := range base[j] {
				add(i, j)
			}
		}
	}))
	return cases
}
