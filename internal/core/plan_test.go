package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestPlanHoldsEveryNonZeroRow checks the solve's row plan on the
// numbers: after a factorization, every stored sub-diagonal L entry in a
// row outside its column's plan is ±0, and every pivot row ipiv records
// lies in its column's diagonal block or in its plan. The plan is where
// the forward sweep and the transposed L̄ᵀ sweep look, so a row it
// missed would drop a non-zero from the solve. Each pair of the plan must
// also name the stacked row its global row lives in. The inputs are the
// small suite and GenPatterns seeds 1–60, with their own values and with
// N(0,1) values that make the panels interchange rows, under PivotFail
// and PivotPerturb.
func TestPlanHoldsEveryNonZeroRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5417))
	type input struct {
		name string
		a    *sparse.CSC
	}
	var inputs []input
	add := func(name string, a *sparse.CSC) {
		inputs = append(inputs, input{name, a}, input{name + "/random", randomValues(a, rng)})
	}
	for _, sp := range matgen.SmallSuite() {
		add(sp.Name, sp.Gen())
	}
	for seed := int64(1); seed <= 60; seed++ {
		for _, pc := range matgen.GenPatterns(seed) {
			add(fmt.Sprintf("%s/seed=%d", pc.Name, seed), pc.A)
		}
	}
	var zeroRows, subPivots, nonFinite int
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
			z, p := checkPlan(t, ctx, f)
			zeroRows += z
			subPivots += p
		}
	}
	t.Logf("%d inputs: %d stored sub-diagonal rows outside the plans, all ±0; %d pivots below the diagonal block, all planned; %d factorizations hit a non-finite value",
		len(inputs), zeroRows, subPivots, nonFinite)
	if zeroRows == 0 || subPivots == 0 {
		t.Fatalf("the inputs never reached an unplanned row (%d) or a sub-diagonal pivot (%d)", zeroRows, subPivots)
	}
}

// checkPlan runs TestPlanHoldsEveryNonZeroRow's checks on one
// factorization and returns how many unplanned rows it read and how many
// pivots came from below the diagonal block.
func checkPlan(t *testing.T, ctx string, f *Factorization) (zeroRows, subPivots int) {
	t.Helper()
	part := f.S.Part
	for k := range f.cols {
		c := &f.cols[k]
		w := c.width
		planned := make(map[int]bool, len(c.plan)/2)
		for p := 0; p < len(c.plan); p += 2 {
			s, g := int(c.plan[p]), int(c.plan[p+1])
			if s < c.panelOffset()+w || s >= c.rows || c.globalRow(part, s) != g {
				t.Fatalf("%s: column %d plans stacked row %d as global row %d", ctx, k, s, g)
			}
			planned[g] = true
		}
		for s := c.panelOffset() + w; s < c.rows; s++ {
			g := c.globalRow(part, s)
			if planned[g] {
				continue
			}
			zeroRows++
			for j, v := range c.data[s*w : (s+1)*w] {
				if v != 0 {
					t.Fatalf("%s: column %d row %d is outside the plan but holds %v at local column %d", ctx, k, g, v, j)
				}
			}
		}
		base := part.BlockStart[k]
		for lc, g := range f.ipiv[k] {
			if g >= base && g < base+w {
				continue
			}
			subPivots++
			if !planned[g] {
				t.Fatalf("%s: column %d pivots local column %d on row %d, which is outside the plan", ctx, k, lc, g)
			}
		}
	}
	return zeroRows, subPivots
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
		planned := make(map[int32]bool, len(c.plan)/2)
		for p := 0; p < len(c.plan); p += 2 {
			planned[c.plan[p]] = true
		}
		for r := c.panelOffset() + c.width; r < c.rows; r++ {
			if !planned[int32(r)] {
				return c.globalRow(s.Part, r), s.Part.BlockStart[k], true
			}
		}
	}
	return 0, 0, false
}
