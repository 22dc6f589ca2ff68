// Golden test for Theorem 1 of the paper: postordering the LU
// elimination forest is a symmetric relabeling that leaves the fill of
// the static factors unchanged — |L̄+Ū| before and after the postorder
// permutation must match exactly. The counts are pinned so a regression
// in the symbolic factorization, the eforest construction or the
// postorder itself shows up as a changed constant, not just as a broken
// relation.
//
// The file is an external test package so it can close the loop through
// internal/etree and internal/verify without an import cycle.
package symbolic_test

import (
	"testing"

	"repro/internal/etree"
	"repro/internal/matgen"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/verify"
)

// goldenFill maps each small benchmark pattern to |L̄+Ū| of its static
// symbolic factorization in natural order. Computed once from the seed
// implementation; these are structural quantities with no float
// tolerance involved.
var goldenFill = map[string]int{
	"sherman3-s": 16497,
	"sherman5-s": 34348,
	"lnsp-s":     5039,
	"lns-s":      5683,
	"orsreg-s":   22434,
	"saylr-s":    23784,
	"goodwin-s":  9869,
}

// goldenStored pins, for the same natural-order factorizations, what the
// numeric phase stores under the default blocking (fill-ratio
// amalgamation at 0.25, panels split at 32): the blocks that hold an
// entry of Ā and their dense area. Both are structural, like the fill.
var goldenStored = map[string][2]int{
	"sherman3-s": {316, 27072},
	"sherman5-s": {144, 49554},
	"lnsp-s":     {209, 6901},
	"lns-s":      {169, 7586},
	"orsreg-s":   {117, 27402},
	"saylr-s":    {105, 30653},
	"goodwin-s":  {214, 13244},
}

func TestPostorderPreservesFillGolden(t *testing.T) {
	tested := 0
	for _, spec := range matgen.SmallSuite() {
		want, ok := goldenFill[spec.Name]
		if !ok {
			t.Errorf("no golden fill count for %s — add it", spec.Name)
			continue
		}
		tested++
		a := spec.Gen()
		sym, err := symbolic.Factor(a)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got := sym.NNZ(); got != want {
			t.Errorf("%s: |L̄+Ū| = %d, golden %d", spec.Name, got, want)
		}

		opts := supernode.AmalgamationOptions{MaxSize: 32, MaxFill: 0.25}
		part := supernode.Split(supernode.Amalgamate(supernode.StrictPartition(sym), sym, opts), opts.MaxSize)
		stored := symbolic.FromPattern(supernode.BlockPattern(sym, part))
		if got := [2]int{stored.NNZ(), supernode.DenseEntries(stored, part)}; got != goldenStored[spec.Name] {
			t.Errorf("%s: %d stored blocks holding %d entries, golden %v", spec.Name, got[0], got[1], goldenStored[spec.Name])
		}

		// Theorem 1: refactoring the postorder-permuted matrix yields the
		// same fill, entry count included.
		forest := etree.LUForest(sym)
		perm := forest.PostOrder()
		symPO, err := symbolic.Factor(a.PermuteSym(perm))
		if err != nil {
			t.Fatalf("%s postordered: %v", spec.Name, err)
		}
		if symPO.NNZ() != sym.NNZ() {
			t.Errorf("%s: postordering changed fill %d → %d (violates Theorem 1)",
				spec.Name, sym.NNZ(), symPO.NNZ())
		}

		// Theorems 1–3 in full: the permuted pattern is the relabeled
		// pattern, column by column, and the relabeled forest is
		// postordered.
		if err := verify.VerifyPostorderInvariance(a, sym, forest); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	if tested < 3 {
		t.Fatalf("only %d patterns tested; the golden suite needs at least 3", tested)
	}
}
