package core

import (
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// The bench's factor_s and resident_mb ride on two structural counts of
// its four workload matrices: |Ā| and the dense area of the stored
// blocks. The ceilings are what the exact-external-degree ordering
// gave before the approximate-degree rewrite, so a later change to the
// ordering or its tie-breaks cannot buy ordering time with fill
// unnoticed.
func TestWorkloadStructureCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes four full-size matrices")
	}
	workloads := []struct {
		name                  string
		gen                   func() *sparse.CSC
		maxFactors, maxStored int
	}{
		{"sherman3", matgen.Sherman3, 712940, 1681297},
		{"sherman5", matgen.Sherman5, 907737, 1826489},
		{"lnsp3937", matgen.Lnsp3937, 234508, 581295},
		{"orsreg1", matgen.Orsreg1, 500044, 975316},
	}
	for _, w := range workloads {
		s, err := Analyze(w.gen(), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		st := s.Stats
		t.Logf("%s: |Ā| = %d (ceiling %d), stored entries = %d (ceiling %d), %.3f s",
			w.name, st.NNZFactors, w.maxFactors, st.StoredEntries, w.maxStored, st.AnalyzeSeconds)
		if st.NNZFactors > w.maxFactors {
			t.Errorf("%s: NNZFactors %d above the ceiling %d", w.name, st.NNZFactors, w.maxFactors)
		}
		if st.StoredEntries > w.maxStored {
			t.Errorf("%s: StoredEntries %d above the ceiling %d", w.name, st.StoredEntries, w.maxStored)
		}
	}
}
