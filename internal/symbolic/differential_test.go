package symbolic_test

import (
	"slices"
	"testing"

	"repro/internal/etree"
	"repro/internal/matgen"
	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
)

// differentialSeeds is how many pattern sets the differential tests draw
// (five families each, natural and minimum-degree ordered).
const differentialSeeds = 12

// forEachPattern runs check on every generated pattern, as generated and
// under the fill-reducing ordering Analyze applies first.
func forEachPattern(t *testing.T, check func(t *testing.T, name string, a *sparse.CSC)) {
	for seed := int64(1); seed <= differentialSeeds; seed++ {
		for _, pc := range matgen.GenPatterns(seed) {
			check(t, pc.Name, pc.A)
			check(t, pc.Name+"/mindeg", pc.A.PermuteSym(ordering.ColumnOrdering(pc.A, ordering.MinDegreeATA)))
		}
	}
}

// TestDifferentialFactor checks the engine against the dense reference
// elimination on generated patterns.
func TestDifferentialFactor(t *testing.T) {
	forEachPattern(t, func(t *testing.T, name string, a *sparse.CSC) {
		got, err := symbolic.Factor(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		equalResult(t, name+": Factor vs naive", got, symbolic.FactorNaive(a))
	})
}

// TestDifferentialPostorderRelabel is Theorem 3 on generated patterns:
// relabelling the symbolic factorization by a postorder of its eforest is
// the symbolic factorization of the permuted matrix.
func TestDifferentialPostorderRelabel(t *testing.T) {
	forEachPattern(t, func(t *testing.T, name string, a *sparse.CSC) {
		sym, err := symbolic.Factor(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		post := etree.LUForest(sym).PostOrder()
		want, err := symbolic.Factor(a.PermuteSym(post))
		if err != nil {
			t.Fatalf("%s: permuted: %v", name, err)
		}
		equalResult(t, name+": PermuteSymbolic vs Factor of the permuted matrix", etree.PermuteSymbolic(sym, post), want)
	})
}

// amalgamateReference is supernode.Amalgamate as it stood before the
// running panel unions were kept with stamps: two materialized unions
// per candidate merge. Kept as the reference the rewrite is held to.
func amalgamateReference(p *supernode.Partition, sym *symbolic.Result, maxFill float64) []int {
	type panelStat struct {
		width        int
		lRows, uCols []int
		nnz          int
	}
	stat := func(lo, hi int) panelStat {
		s := panelStat{width: hi - lo}
		for c := lo; c < hi; c++ {
			s.nnz += len(sym.L.Col(c)) + len(sym.URows.Col(c))
			s.lRows = sparse.UnionSorted(s.lRows, sym.L.Col(c))
			s.uCols = sparse.UnionSorted(s.uCols, sym.URows.Col(c))
		}
		return s
	}
	starts := []int{0}
	cur := stat(p.Range(0))
	for k := 1; k < p.NumBlocks(); k++ {
		lo, hi := p.Range(k)
		next := stat(lo, hi)
		merged := panelStat{
			width: cur.width + next.width,
			lRows: sparse.UnionSorted(cur.lRows, next.lRows),
			uCols: sparse.UnionSorted(cur.uCols, next.uCols),
			nnz:   cur.nnz + next.nnz,
		}
		if st := merged.width * (len(merged.lRows) + len(merged.uCols)); st > 0 &&
			float64(st-merged.nnz) <= maxFill*float64(st) {
			cur = merged
			continue
		}
		starts = append(starts, lo)
		cur = next
	}
	return append(starts, p.N)
}

// TestDifferentialSupernodes holds Amalgamate to its reference
// implementation and BlockPattern to a brute-force scan of Ā.
func TestDifferentialSupernodes(t *testing.T) {
	forEachPattern(t, func(t *testing.T, name string, a *sparse.CSC) {
		sym, err := symbolic.Factor(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, base := range []*supernode.Partition{supernode.StrictPartition(sym), supernode.Trivial(sym.N)} {
			for _, maxFill := range []float64{0, 0.1, 0.25, 0.6} {
				part := supernode.Amalgamate(base, sym, supernode.AmalgamationOptions{MaxFill: maxFill})
				if want := amalgamateReference(base, sym, maxFill); !slices.Equal(part.BlockStart, want) {
					t.Fatalf("%s: Amalgamate(maxFill %v) starts %v, reference %v", name, maxFill, part.BlockStart, want)
				}

				nb := part.NumBlocks()
				present := make([]bool, nb*nb) // column-major, like the pattern
				for k := 0; k < nb; k++ {
					present[k*nb+k] = true
				}
				u := sym.UCols()
				for j := 0; j < sym.N; j++ {
					for _, col := range [][]int{sym.L.Col(j), u.Col(j)} {
						for _, i := range col {
							present[part.ColToBlock[j]*nb+part.ColToBlock[i]] = true
						}
					}
				}
				bp := supernode.BlockPattern(sym, part)
				if bp.NRows != nb || bp.NCols != nb {
					t.Fatalf("%s: BlockPattern is %d×%d, want %d×%d", name, bp.NRows, bp.NCols, nb, nb)
				}
				for bj := 0; bj < nb; bj++ {
					var want []int
					for bi := 0; bi < nb; bi++ {
						if present[bj*nb+bi] {
							want = append(want, bi)
						}
					}
					if !slices.Equal(bp.Col(bj), want) {
						t.Fatalf("%s: BlockPattern column %d = %v, brute force %v", name, bj, bp.Col(bj), want)
					}
				}
			}
		}
	})
}
