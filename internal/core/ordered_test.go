package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/etree"
	"repro/internal/matgen"
	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/transversal"
)

// orderedSeeds is how many GenPatterns sets (five families each) the
// ordered-stage differential test draws.
const orderedSeeds = 40

// orderedCase is the scalar structure Analyze partitions: sym in the
// labels of the fill-reducing ordering, and order, the postorder of its
// eforest from new label to old (nil without the postorder).
type orderedCase struct {
	sym     *symbolic.Result
	perm    sparse.Perm // old → new; nil without the postorder
	order   []int
	symPerm sparse.Perm
}

// scalarFront runs Analyze's stages up to the postorder on a.
func scalarFront(t *testing.T, a *sparse.CSC, o *Options) orderedCase {
	t.Helper()
	a1 := a.PermuteRows(transversal.MaximumTransversal(a).RowPerm)
	fill := ordering.ColumnOrdering(a1, o.Ordering)
	sym, err := symbolic.Factor(a1.PermuteSym(fill))
	if err != nil {
		t.Fatal(err)
	}
	c := orderedCase{sym: sym, symPerm: fill}
	if o.Postorder {
		c.perm = etree.LUForest(sym).PostOrder()
		c.order = c.perm.Inverse()
		c.symPerm = fill.Compose(c.perm)
	}
	return c
}

// TestOrderedStagesMatchRelabel holds the supernode stages that read the
// scalar structure through the postorder (StrictPartitionOrdered,
// AmalgamateOrdered, BlockPatternOrdered) to the stages on the relabeled
// structure (etree.PermuteSymbolic) they replace, and Analyze's partition
// and stored blocks to the relabel-then-partition pipeline: on every
// GenPatterns family over orderedSeeds seeds and on the suite, with the
// postorder on and off.
func TestOrderedStagesMatchRelabel(t *testing.T) {
	type input struct {
		name string
		a    *sparse.CSC
	}
	var inputs []input
	for seed := int64(1); seed <= orderedSeeds; seed++ {
		for _, pc := range matgen.GenPatterns(seed) {
			inputs = append(inputs, input{pc.Name, pc.A})
		}
	}
	suite := matgen.Suite()
	if testing.Short() {
		suite = matgen.SmallSuite()
	}
	for _, sp := range suite {
		inputs = append(inputs, input{sp.Name, sp.Gen()})
	}
	for _, in := range inputs {
		for _, post := range []bool{true, false} {
			name := fmt.Sprintf("%s/postorder=%v", in.name, post)
			o := DefaultOptions()
			o.Postorder = post
			c := scalarFront(t, in.a, o)
			rel := c.sym
			if c.perm != nil {
				rel = etree.PermuteSymbolic(c.sym, c.perm)
			}

			strict := supernode.StrictPartition(rel)
			if got := supernode.StrictPartitionOrdered(c.sym, c.order); !slices.Equal(got.BlockStart, strict.BlockStart) {
				t.Fatalf("%s: StrictPartitionOrdered starts %v, relabeled %v", name, got.BlockStart, strict.BlockStart)
			}
			for _, base := range []*supernode.Partition{strict, supernode.Trivial(rel.N)} {
				for _, maxFill := range []float64{0, 0.25, 0.6} {
					opts := supernode.AmalgamationOptions{MaxSize: supernode.MaxWidth, MaxFill: maxFill}
					merged := supernode.Amalgamate(base, rel, opts)
					if got := supernode.AmalgamateOrdered(base, c.sym, c.order, opts); !slices.Equal(got.BlockStart, merged.BlockStart) {
						t.Fatalf("%s: AmalgamateOrdered(maxFill %v) starts %v, relabeled %v", name, maxFill, got.BlockStart, merged.BlockStart)
					}
					part := supernode.Split(merged, opts.MaxSize)
					bp, rows := supernode.BlockPatternOrdered(rel, nil, part, nil)
					got, gotRows := supernode.BlockPatternOrdered(c.sym, c.order, part, strict)
					if !reflect.DeepEqual(got, bp) {
						t.Fatalf("%s: BlockPatternOrdered (maxFill %v) differs from the relabeled block pattern", name, maxFill)
					}
					if !reflect.DeepEqual(gotRows, rows) {
						t.Fatalf("%s: BlockPatternOrdered (maxFill %v) plans other rows than on the relabeled structure", name, maxFill)
					}
					if z, want := supernode.ExplicitZeros(c.sym, part, got), supernode.ExplicitZeros(rel, part, bp); z != want {
						t.Fatalf("%s: ExplicitZeros %d through the order, %d relabeled", name, z, want)
					}
				}
			}

			s, err := Analyze(in.a, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			part := supernode.Split(supernode.Amalgamate(strict, rel, o.Amalgamation), o.Amalgamation.MaxSize)
			bp := supernode.BlockPattern(rel, part)
			stored := symbolic.FromPattern(bp)
			switch {
			case !slices.Equal(s.SymPerm, c.symPerm):
				t.Fatalf("%s: Analyze SymPerm differs from the ordering composed with the postorder", name)
			case s.Stats.StrictSN != strict.NumBlocks() || !slices.Equal(s.Part.BlockStart, part.BlockStart):
				t.Fatalf("%s: Analyze partition %d strict / %v, relabel-then-partition %d / %v",
					name, s.Stats.StrictSN, s.Part.BlockStart, strict.NumBlocks(), part.BlockStart)
			case !reflect.DeepEqual(s.Stored, stored):
				t.Fatalf("%s: Analyze stored blocks differ from the relabeled structure's", name)
			case s.Stats.ExplicitZeros != supernode.ExplicitZeros(rel, part, bp):
				t.Fatalf("%s: Analyze explicit zeros %d, relabeled %d", name, s.Stats.ExplicitZeros, supernode.ExplicitZeros(rel, part, bp))
			}
		}
	}
}

// TestAnalyzeVerifyRelabelsOnDemand runs Options.Verify, whose stored-
// block check builds the relabeled scalar structure that Analyze
// otherwise never writes: it must accept, and the analysis must be the
// one Analyze returns without it.
func TestAnalyzeVerifyRelabelsOnDemand(t *testing.T) {
	var inputs []*sparse.CSC
	for seed := int64(1); seed <= 8; seed++ {
		for _, pc := range matgen.GenPatterns(seed) {
			inputs = append(inputs, pc.A)
		}
	}
	for _, sp := range matgen.SmallSuite() {
		inputs = append(inputs, sp.Gen())
	}
	for i, a := range inputs {
		for _, post := range []bool{true, false} {
			o := DefaultOptions()
			o.Postorder = post
			want, err := Analyze(a, o)
			if err != nil {
				t.Fatal(err)
			}
			o.Verify = true
			got, err := Analyze(a, o)
			if err != nil {
				t.Fatalf("input %d postorder=%v: %v", i, post, err)
			}
			want.Stats.AnalyzeSeconds, got.Stats.AnalyzeSeconds = 0, 0
			if !reflect.DeepEqual(fingerprint(got), fingerprint(want)) {
				t.Fatalf("input %d postorder=%v: the analysis with Verify differs from the one without", i, post)
			}
		}
	}
}
