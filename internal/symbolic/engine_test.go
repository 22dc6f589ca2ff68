package symbolic

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/sparse"
)

// TestEngineSeedErrors: a malformed seed is refused with ErrSeed before
// it is registered — under first-column registration an empty or
// unsorted structure would otherwise index out of range or file the
// group under a column that is not its smallest.
func TestEngineSeedErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    group
	}{
		{"no columns", group{members: []int32{1}}},
		{"no rows", group{cols: []int32{1, 2}}},
		{"unsorted columns", group{members: []int32{1}, cols: []int32{2, 1}}},
		{"repeated column", group{members: []int32{1}, cols: []int32{1, 1}}},
		{"column out of range", group{members: []int32{1}, cols: []int32{1, 4}}},
		{"negative column", group{members: []int32{1}, cols: []int32{-1, 2}}},
		{"unsorted rows", group{members: []int32{3, 1}, cols: []int32{1, 3}}},
		{"row out of range", group{members: []int32{4}, cols: []int32{1}}},
	} {
		e := newEngine(4, newColumns(4), 1)
		if err := e.seedGroup(tc.g); !errors.Is(err, ErrSeed) {
			t.Errorf("%s: seedGroup returned %v, want ErrSeed", tc.name, err)
		}
		if len(e.survivors()) != 0 {
			t.Errorf("%s: the refused seed was registered", tc.name)
		}
	}
	e := newEngine(4, newColumns(4), 1)
	if err := e.seedRow(0, []int{2, 0}); !errors.Is(err, ErrSeed) {
		t.Errorf("seedRow with unsorted columns returned %v, want ErrSeed", err)
	}
}

// TestEngineNoCandidate: a step nothing is registered under — a
// structurally zero pivot the engine was run over regardless — is
// ErrNoCandidate, not a panic.
func TestEngineNoCandidate(t *testing.T) {
	e := newEngine(3, newColumns(3), 2)
	for row, cols := range [][]int{{0, 2}, {1}} {
		if err := e.seedRow(int32(row), cols); err != nil {
			t.Fatal(err)
		}
	}
	// Row 0 retires at step 0 with column 2 still in its structure and no
	// row left to carry it: step 2 has no candidate.
	if err := e.run(nil); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("run returned %v, want ErrNoCandidate", err)
	}
}

// TestEngineSurvivorsPassThrough runs a bucket engine over the columns
// {0,1,2,3} of a 6×6 pattern whose columns {4,5} belong to a top engine.
// A seeded group whose first column is not a step of the bucket engine
// is never touched and comes back as a survivor, by design; the
// survivors and the top rows, eliminated by the top engine, complete
// exactly the factorization Factor computes in one engine.
func TestEngineSurvivorsPassThrough(t *testing.T) {
	rows := [][]int{{0, 1, 4}, {1, 5}, {2}, {3}, {0, 4}, {4, 5}}
	tr := sparse.NewTriplet(6, 6)
	for i, cols := range rows {
		for _, j := range cols {
			tr.Add(i, j, 1)
		}
	}
	want, err := Factor(tr.ToCSC())
	if err != nil {
		t.Fatal(err)
	}

	out := newColumns(6)
	bucket := newEngine(6, out, 5)
	for _, i := range []int{0, 1, 2, 3, 4} { // row 4 starts in the bucket: its first column is 0
		if err := bucket.seedRow(int32(i), rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	passenger := group{members: []int32{5}, cols: []int32{4, 5}}
	if err := bucket.seedGroup(passenger); err != nil {
		t.Fatal(err)
	}
	if err := bucket.run([]int32{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	surv := bucket.survivors()
	if len(surv) != 2 {
		t.Fatalf("%d survivors, want row 4's merged group and the passenger: %v", len(surv), surv)
	}
	for _, g := range surv {
		if !slices.Equal(g.cols, []int32{4, 5}) {
			t.Fatalf("survivor %v: structure %v, want [4 5]", g.members, g.cols)
		}
	}
	if !slices.ContainsFunc(surv, func(g group) bool { return slices.Equal(g.members, passenger.members) }) {
		t.Fatalf("the passenger group is not among the survivors %v", surv)
	}

	top := newEngine(6, out, 2)
	for _, g := range surv {
		if err := top.seedGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.run([]int32{4, 5}); err != nil {
		t.Fatal(err)
	}
	got := out.pack()
	if !patternsEqual(got.L, want.L) || !patternsEqual(got.URows, want.URows) {
		t.Fatalf("bucket + top engines: L %v U %v, Factor: L %v U %v", got.L, got.URows, want.L, want.URows)
	}
}
