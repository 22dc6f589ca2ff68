package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// symbolicFingerprint copies every slice of the Symbolic that the
// numeric and solve phases read, so a test can prove by comparison
// that sharing one Symbolic across concurrent factorizations never
// mutates it. New fields read by the hot paths should be added here.
type symbolicFingerprint struct {
	rowPerm, symPerm, solvePerm sparse.Perm
	symColPtr, symRowInd        []int
	blockColPtr, blockRowInd    []int
	stats                       AnalysisStats
}

func fingerprint(s *Symbolic) symbolicFingerprint {
	cp := func(v []int) []int { out := make([]int, len(v)); copy(out, v); return out }
	return symbolicFingerprint{
		rowPerm:     sparse.Perm(cp(s.RowPerm)),
		symPerm:     sparse.Perm(cp(s.SymPerm)),
		solvePerm:   sparse.Perm(cp(s.SolvePerm)),
		symColPtr:   cp(s.Sym.L.ColPtr),
		symRowInd:   cp(s.Sym.L.RowInd),
		blockColPtr: cp(s.BlockSym.L.ColPtr),
		blockRowInd: cp(s.BlockSym.L.RowInd),
		stats:       s.Stats,
	}
}

func (fp *symbolicFingerprint) equal(other *symbolicFingerprint) bool {
	eq := func(a, b []int) bool {
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
	return eq(fp.rowPerm, other.rowPerm) && eq(fp.symPerm, other.symPerm) &&
		eq(fp.solvePerm, other.solvePerm) &&
		eq(fp.symColPtr, other.symColPtr) && eq(fp.symRowInd, other.symRowInd) &&
		eq(fp.blockColPtr, other.blockColPtr) && eq(fp.blockRowInd, other.blockRowInd) &&
		fp.stats == other.stats
}

// TestSymbolicReuseConcurrent is the shared-Symbolic contract of the
// solve service: one analysis serves many concurrent numeric
// factorizations and solves (different worker counts, explicit
// per-call NumericOptions), every solution is bitwise identical to the
// serial reference, and the Symbolic itself is never written to. Run
// under -race this also proves the absence of unsynchronized access to
// the shared analysis.
func TestSymbolicReuseConcurrent(t *testing.T) {
	// sherman5-s: big enough for real supernodal parallelism, small
	// enough that 16 goroutines × 4 factorizations stay fast under -race.
	a := matgen.SmallSuite()[1].Gen()
	s, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	before := fingerprint(s)

	n := s.N
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}

	// Serial reference: one worker everywhere.
	refOpts := &NumericOptions{Workers: 1}
	fRef, err := FactorizeWithOpts(s, a, refOpts)
	if err != nil {
		t.Fatalf("reference factorization: %v", err)
	}
	xRef, err := fRef.SolveWith(b, refOpts)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nopts := &NumericOptions{Workers: 1 + g%4}
			f, err := FactorizeWithOpts(s, a, nopts)
			if err != nil {
				errc <- fmt.Errorf("goroutine %d: factorize: %v", g, err)
				return
			}
			for iter := 0; iter < 3; iter++ {
				x, err := f.SolveWith(b, nopts)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d: solve: %v", g, err)
					return
				}
				for i := range x {
					if x[i] != xRef[i] {
						errc <- fmt.Errorf("goroutine %d (workers=%d): x[%d] = %x, serial %x",
							g, nopts.Workers, i, x[i], xRef[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	after := fingerprint(s)
	if !before.equal(&after) {
		t.Error("Symbolic was mutated by concurrent factorization/solve")
	}
}
