package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/matgen"
)

// symbolicFingerprint copies every slice of the Symbolic that the
// numeric and solve phases read — the permutations, the partition, the
// stored block pattern, the block-column layout, the task graph's
// successors and chains and the priorities — so a test can prove by
// comparison that sharing one Symbolic across concurrent factorizations
// never mutates it. New fields read by the hot paths should be added here.
type symbolicFingerprint struct {
	ints   [][]int
	ints32 [][]int32
	prio   []float64
	stats  AnalysisStats
}

func fingerprint(s *Symbolic) symbolicFingerprint {
	fp := symbolicFingerprint{prio: slices.Clone(s.Prio), stats: s.Stats}
	add := func(vs ...[]int) {
		for _, v := range vs {
			fp.ints = append(fp.ints, slices.Clone(v))
		}
	}
	add(s.RowPerm, s.SymPerm, s.SolvePerm, s.Part.BlockStart, s.Part.ColToBlock,
		s.Stored.L.ColPtr, s.Stored.L.RowInd, s.Stored.URows.ColPtr, s.Stored.URows.RowInd)
	for i := range s.layout {
		c := &s.layout[i]
		add(c.blockRows, c.offsets, c.panelRows, []int{c.width, c.diagIdx, c.rows, c.packEnd})
	}
	for _, succ := range s.Graph.Succ {
		fp.ints32 = append(fp.ints32, slices.Clone(succ))
	}
	fp.ints32 = append(fp.ints32, slices.Clone(s.Graph.ChainNext))
	return fp
}

func (fp *symbolicFingerprint) equal(other *symbolicFingerprint) bool {
	return slices.EqualFunc(fp.ints, other.ints, slices.Equal[[]int]) &&
		slices.EqualFunc(fp.ints32, other.ints32, slices.Equal[[]int32]) &&
		slices.Equal(fp.prio, other.prio) && fp.stats == other.stats
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
