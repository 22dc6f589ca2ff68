package symbolic

import (
	"repro/internal/sparse"
)

// equalCols reports whether two sorted index slices are identical.
func equalCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deltaMaxAffected is the fallback threshold: if the affected buckets
// hold more than this fraction of the bucketed columns, a full
// factorization is cheaper than the patch.
const deltaMaxAffected = 0.5

// FactorDelta recomputes the symbolic factorization of aNew, given the
// Result old of a previous factorization whose input had pattern oldPat,
// and a column Partition valid for oldPat (normally the one
// PartitionColumns built from it). Only the subtree buckets whose input
// rows changed are re-eliminated, plus the shared top region; the
// per-column outputs of untouched buckets are copied from old, and
// their surviving row groups are reconstructed from old's L̄/Ū
// structures (the last bucket column a surviving row appears under in
// L̄ carries its reduced structure as that column's Ū row).
//
// The ok result is false when the delta cannot be patched — different
// order, no partition, a changed row violating the partition's locality
// invariant, or more than deltaMaxAffected of the bucketed columns
// affected — and the caller must run a full factorization instead.
// When ok is true the Result is identical to Factor(aNew), which
// TestFactorDeltaIdentical pins.
func FactorDelta(aNew *sparse.CSC, oldPat *sparse.Pattern, old *Result, part *Partition, runner Runner) (*Result, bool, error) {
	if part == nil || oldPat == nil || old == nil {
		return nil, false, nil
	}
	if err := checkSquareZeroFree(sparse.PatternView(aNew)); err != nil {
		return nil, false, err
	}
	n := aNew.NCols
	if n != oldPat.NCols || n != part.N || oldPat.NRows != oldPat.NCols {
		return nil, false, nil
	}

	atNew := sparse.PatternView(aNew).Transpose() // Col(r) = row r, sorted
	atOld := oldPat.Transpose()

	nb := len(part.BucketCols)
	affected := make([]bool, nb)
	topAffectedRows := false
	for r := 0; r < n; r++ {
		rowNew, rowOld := atNew.Col(r), atOld.Col(r)
		if equalCols(rowNew, rowOld) {
			continue
		}
		// The buckets that owned and now own the row both change.
		if bOld := part.ColBucket[rowOld[0]]; bOld >= 0 {
			affected[bOld] = true
		} else {
			topAffectedRows = true
		}
		bNew := part.ColBucket[rowNew[0]]
		if bNew >= 0 {
			affected[bNew] = true
		} else {
			topAffectedRows = true
		}
		// Locality check: the changed row must still confine its
		// structure to its bucket plus top columns above the bucket,
		// or entirely to the top region. Otherwise the old partition
		// no longer bounds the fill and the patch would be wrong.
		for _, c := range rowNew {
			cb := part.ColBucket[c]
			if bNew < 0 {
				if cb >= 0 {
					return nil, false, nil
				}
			} else if cb != bNew && (cb >= 0 || int32(c) <= part.MaxCol[bNew]) {
				return nil, false, nil
			}
		}
	}
	_ = topAffectedRows // the top region is always re-eliminated

	affectedCols, totalCols := 0, 0
	anyAffected := false
	for b := 0; b < nb; b++ {
		totalCols += len(part.BucketCols[b])
		if affected[b] {
			anyAffected = true
			affectedCols += len(part.BucketCols[b])
		}
	}
	if !anyAffected && !topAffectedRows {
		// Identical pattern: the old result is the answer.
		return old, true, nil
	}
	if totalCols == 0 || float64(affectedCols) > deltaMaxAffected*float64(totalCols) {
		return nil, false, nil
	}

	out := newColumns(n)

	// Copy the per-column outputs of untouched buckets from the old
	// result (their inputs are unchanged and bucket eliminations are
	// independent, so their outputs are unchanged too). The top engine's
	// arena holds the copies until pack.
	top := newEngine(n, out, len(part.TopCols))
	for b := 0; b < nb; b++ {
		if affected[b] {
			continue
		}
		for _, k := range part.BucketCols[b] {
			out.lCols[k] = top.copyInts(old.L.Col(int(k))[1:])
			out.uRows[k] = top.copyInts(old.URows.Col(int(k))[1:])
		}
	}

	// Re-seed and re-run the affected buckets on the new rows.
	engines := make(map[int32]*engine, nb)
	var affectedIDs []int32
	for b := 0; b < nb; b++ {
		if affected[b] {
			engines[int32(b)] = newEngine(n, out, len(part.BucketCols[b]))
			affectedIDs = append(affectedIDs, int32(b))
		}
	}
	var topRows []int32
	for r := 0; r < n; r++ {
		row := atNew.Col(r)
		b := part.ColBucket[row[0]]
		if b < 0 {
			topRows = append(topRows, int32(r))
			continue
		}
		if e, ok := engines[b]; ok {
			if err := e.seedRow(int32(r), row); err != nil {
				return nil, false, err
			}
		}
	}
	if runner == nil {
		runner = serialRunner
	}
	if err := runner(len(affectedIDs), func(i int) error {
		b := affectedIDs[i]
		return engines[b].run(part.BucketCols[b])
	}); err != nil {
		return nil, false, err
	}

	// The top region always re-runs: it consumes every bucket's
	// survivors. Affected buckets hand over their live groups;
	// untouched buckets' survivors are reconstructed from the old
	// structures.
	lastJ := make([]int32, n)
	for i := range lastJ {
		lastJ[i] = -1
	}
	for b := 0; b < nb; b++ {
		if e, ok := engines[int32(b)]; ok {
			for _, g := range e.survivors() {
				if err := top.seedGroup(g); err != nil {
					return nil, false, err
				}
			}
			continue
		}
		if err := reconstructSurvivors(old, part, int32(b), lastJ, top); err != nil {
			return nil, false, err
		}
	}
	for _, r := range topRows {
		if err := top.seedRow(r, atNew.Col(int(r))); err != nil {
			return nil, false, err
		}
	}
	if err := top.run(part.TopCols); err != nil {
		return nil, false, err
	}
	return out.pack(), true, nil
}

// reconstructSurvivors rebuilds bucket b's post-elimination surviving
// row groups from the old factorization and seeds them into the top
// engine. A bucket row that survives (its pivot column is in the top
// region) appears in L̄ under every bucket column its group was merged
// at; the last such column j carries the group's final structure as
// Ū row j. Rows sharing that last column form one group. lastJ is an
// n-sized scratch array of -1 shared across calls (row sets of
// different buckets are disjoint).
func reconstructSurvivors(old *Result, part *Partition, b int32, lastJ []int32, top *engine) error {
	cols := part.BucketCols[b]
	for _, k := range cols {
		for _, r := range old.L.Col(int(k))[1:] {
			if part.ColBucket[r] < 0 { // pivot column in the top region: never eliminated here
				lastJ[r] = k
			}
		}
	}
	for _, k := range cols {
		var members []int32
		for _, r := range old.L.Col(int(k))[1:] {
			if part.ColBucket[r] < 0 && lastJ[r] == k {
				members = append(members, int32(r))
				lastJ[r] = -1 // reset the scratch for the next call
			}
		}
		if len(members) == 0 {
			continue
		}
		if err := top.seedGroup(group{members: members, cols: top.copyInts(old.URows.Col(int(k))[1:])}); err != nil {
			return err
		}
	}
	return nil
}
