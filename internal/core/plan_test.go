package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestPlanHoldsEveryNonZeroRow checks the row plan on the numbers: every
// pivot row ipiv records lies in its column's diagonal block or in its
// plan, and each plan lists, ascending, rows of stored blocks below the
// diagonal block. The layout stores no other row below a diagonal
// block, so a pivot row outside the plan would be one the panel LU
// never saw; that the rows left out are ±0 is the second check of
// TestLayoutFreeOracleParity. The inputs are the small suite and GenPatterns
// seeds 1–60, with their own values and with N(0,1) values that make the
// panels interchange rows, under PivotFail and PivotPerturb.
func TestPlanHoldsEveryNonZeroRow(t *testing.T) {
	var subPivots, nonFinite int
	inputs := oracleInputs()
	for _, in := range inputs {
		s, err := Analyze(in.a, nil)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for _, policy := range []PivotPolicy{PivotFail, PivotPerturb} {
			ctx := fmt.Sprintf("%s %v", in.name, policy)
			f, err := FactorizeWithOpts(s, in.a, &NumericOptions{PivotPolicy: policy, Workers: 1})
			if errors.Is(err, ErrNonFinite) {
				nonFinite++
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			subPivots += checkPlan(t, ctx, f)
		}
	}
	t.Logf("%d inputs: %d pivots below the diagonal block, all planned; %d factorizations hit a non-finite value",
		len(inputs), subPivots, nonFinite)
	if subPivots == 0 {
		t.Fatal("the inputs never reached a sub-diagonal pivot")
	}
}

// oracleInput is one matrix of the layout oracles.
type oracleInput struct {
	name string
	a    *sparse.CSC
}

// oracleInputs returns the small suite and GenPatterns seeds 1–60, each
// with its own values and with N(0,1) values that make the panels
// interchange rows.
func oracleInputs() []oracleInput {
	rng := rand.New(rand.NewSource(5417))
	var inputs []oracleInput
	add := func(name string, a *sparse.CSC) {
		inputs = append(inputs, oracleInput{name, a}, oracleInput{name + "/random", randomValues(a, rng)})
	}
	for _, sp := range matgen.SmallSuite() {
		add(sp.Name, sp.Gen())
	}
	for seed := int64(1); seed <= 60; seed++ {
		for _, pc := range matgen.GenPatterns(seed) {
			add(fmt.Sprintf("%s/seed=%d", pc.Name, seed), pc.A)
		}
	}
	return inputs
}

// checkPlan runs TestPlanHoldsEveryNonZeroRow's checks on one
// factorization and returns how many pivots came from below the
// diagonal block.
func checkPlan(t *testing.T, ctx string, f *Factorization) (subPivots int) {
	t.Helper()
	part := f.S.Part
	for k := range f.cols {
		c := &f.cols[k]
		w := c.width
		for p, g := range c.plan {
			if br := part.ColToBlock[g]; br <= k || !f.S.Stored.L.Has(br, k) || p > 0 && c.plan[p-1] >= g {
				t.Fatalf("%s: column %d plans row %d at entry %d", ctx, k, g, p)
			}
		}
		base := part.BlockStart[k]
		for lc, g := range f.ipiv[k] {
			if g >= base && g < base+w {
				continue
			}
			subPivots++
			if _, ok := slices.BinarySearch(c.plan, int32(g)); !ok {
				t.Fatalf("%s: column %d pivots local column %d on row %d, which is outside the plan", ctx, k, lc, g)
			}
		}
	}
	return subPivots
}

// TestFactorizeRejectsUnplannedEntry factors each small-suite matrix with
// one entry added where Ā has none: inside a stored sub-diagonal block,
// in a row outside its column's plan. The forward sweeps skip that row,
// so a factorization that took the entry would solve wrongly; the
// values scatter must refuse the matrix instead.
func TestFactorizeRejectsUnplannedEntry(t *testing.T) {
	tried := 0
	for _, sp := range matgen.SmallSuite() {
		a := sp.Gen()
		s, err := Analyze(a, nil)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		i, j, ok := unplannedEntry(s)
		if !ok {
			continue
		}
		tried++
		tr := sparse.NewTriplet(a.NRows, a.NCols)
		for jo := 0; jo < a.NCols; jo++ {
			rows, vals := a.Col(jo)
			for k, io := range rows {
				tr.Add(io, jo, vals[k])
			}
		}
		tr.Add(s.SolvePerm.Inverse()[i], s.SymPerm.Inverse()[j], 1)
		_, err = FactorizeWithOpts(s, tr.ToCSC(), nil)
		if err == nil || !strings.Contains(err.Error(), "outside the block structure") {
			t.Fatalf("%s: entry (%d,%d) of A₂ lies outside the plan, but the factorization returned %v", sp.Name, i, j, err)
		}
		if _, err := FactorizeWithOpts(s, a, nil); err != nil {
			t.Fatalf("%s: the analysed matrix itself: %v", sp.Name, err)
		}
	}
	if tried == 0 {
		t.Fatal("no small-suite matrix stores a sub-diagonal row outside its plan")
	}
}

// unplannedEntry returns an entry (i, j) of A₂ inside a stored
// sub-diagonal block of s whose row is outside its column's plan, with
// j the first column of that block column.
func unplannedEntry(s *Symbolic) (i, j int, ok bool) {
	for k := range s.layout {
		c := &s.layout[k]
		for _, br := range s.Stored.L.Col(k)[1:] {
			ilo, ihi := s.Part.Range(br)
			for g := ilo; g < ihi; g++ {
				if _, planned := slices.BinarySearch(c.plan, int32(g)); !planned {
					return g, s.Part.BlockStart[k], true
				}
			}
		}
	}
	return 0, 0, false
}
