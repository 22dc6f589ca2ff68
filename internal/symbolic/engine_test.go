package symbolic

import (
	"errors"
	"testing"
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
		e := newEngine(4, 1)
		if err := e.seedGroup(tc.g); !errors.Is(err, ErrSeed) {
			t.Errorf("%s: seedGroup returned %v, want ErrSeed", tc.name, err)
		}
		if len(e.groups) != 0 {
			t.Errorf("%s: the refused seed was registered", tc.name)
		}
	}
	e := newEngine(4, 1)
	if err := e.seedRow(0, []int{2, 0}); !errors.Is(err, ErrSeed) {
		t.Errorf("seedRow with unsorted columns returned %v, want ErrSeed", err)
	}
}

// TestEngineNoCandidate: a step nothing is registered under — a
// structurally zero pivot the engine was run over regardless — is
// ErrNoCandidate, not a panic.
func TestEngineNoCandidate(t *testing.T) {
	e := newEngine(3, 2)
	for row, cols := range [][]int{{0, 2}, {1}} {
		if err := e.seedRow(int32(row), cols); err != nil {
			t.Fatal(err)
		}
	}
	// Row 0 retires at step 0 with column 2 still in its structure and no
	// row left to carry it: step 2 has no candidate.
	if err := e.run(); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("run returned %v, want ErrNoCandidate", err)
	}
}
