package sparse_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// ataPatternSorted is ATAPattern as it was before the counting-sort
// transpose: the union of the row structures met by each column,
// deduplicated with a marker and sorted column by column.
func ataPatternSorted(a *sparse.CSC) *sparse.Pattern {
	n := a.NCols
	at := sparse.PatternView(a).Transpose()
	marker := make([]int, n)
	for i := range marker {
		marker[i] = -1
	}
	p := &sparse.Pattern{NRows: n, NCols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		start := len(p.RowInd)
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			r := a.RowInd[k]
			for _, i := range at.Col(r) {
				if marker[i] != j {
					marker[i] = j
					p.RowInd = append(p.RowInd, i)
				}
			}
		}
		sort.Ints(p.RowInd[start:])
		p.ColPtr[j+1] = len(p.RowInd)
	}
	return p
}

// TestATAPatternMatchesSortingVersion pins the counting-sort ATAPattern
// to the sorting one entry for entry — the same column pointers and the
// same row indices in the same order — on the full-size and the small
// suite and on GenPatterns seeds 1–60.
func TestATAPatternMatchesSortingVersion(t *testing.T) {
	type input struct {
		name string
		a    *sparse.CSC
	}
	var inputs []input
	for _, sp := range append(matgen.Suite(), matgen.SmallSuite()...) {
		inputs = append(inputs, input{sp.Name, sp.Gen()})
	}
	for seed := int64(1); seed <= 60; seed++ {
		for _, pc := range matgen.GenPatterns(seed) {
			inputs = append(inputs, input{fmt.Sprintf("%s/seed=%d", pc.Name, seed), pc.A})
		}
	}
	for _, in := range inputs {
		got, want := sparse.ATAPattern(in.a), ataPatternSorted(in.a)
		if got.NRows != want.NRows || got.NCols != want.NCols ||
			!slices.Equal(got.ColPtr, want.ColPtr) || !slices.Equal(got.RowInd, want.RowInd) {
			t.Fatalf("%s: ATAPattern differs from the sorting version", in.name)
		}
	}
}
