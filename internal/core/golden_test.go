package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/sparse"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden tables of the tests that run from this tree")

const goldenFile = "testdata/symbolic_golden.json"

// goldenHasher feeds the structures of a Symbolic into one sha256.
type goldenHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (g *goldenHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	g.h.Write(g.buf[:])
}

func (g *goldenHasher) ints(v []int) {
	g.u64(uint64(len(v)))
	for _, x := range v {
		g.u64(uint64(x))
	}
}

func (g *goldenHasher) ints32(v []int32) {
	g.u64(uint64(len(v)))
	for _, x := range v {
		g.u64(uint64(x))
	}
}

func (g *goldenHasher) floats(v []float64) {
	g.u64(uint64(len(v)))
	for _, x := range v {
		g.u64(math.Float64bits(x))
	}
}

func (g *goldenHasher) pattern(p *sparse.Pattern) {
	g.ints(p.ColPtr)
	g.ints(p.RowInd)
}

// goldenHash is the sha256 of fingerprint(s) — wall clock excluded,
// Autotune never part of it — followed by everything else a Symbolic
// retains that the numeric and solve phases or the paper's tables read:
// the other views of Ā and of the stored and closed block structures,
// the forests, the partition, the task graph with its costs and
// priorities, and the four solve schedules. Two Symbolics with one hash
// are the same analysis.
func goldenHash(s *Symbolic) string {
	g := &goldenHasher{h: sha256.New()}
	fp := structFingerprint(s)
	for _, v := range [][]int{fp.rowPerm, fp.symPerm, fp.solvePerm, fp.symColPtr, fp.symRowInd, fp.blockColPtr, fp.blockRowInd} {
		g.ints(v)
	}
	fmt.Fprintf(g.h, "%+v", fp.stats)

	g.pattern(s.Sym.U)
	g.pattern(s.Sym.URows)
	for _, p := range []*sparse.Pattern{s.Stored.L, s.Stored.U, s.Stored.URows, s.BlockSym.U, s.BlockSym.URows} {
		g.pattern(p)
	}
	g.ints(s.Forest.Parent)
	g.ints(s.BlockForest.Parent)
	g.ints(s.Part.BlockStart)
	g.u64(uint64(s.Graph.NumEdges))
	for id, t := range s.Graph.Tasks {
		g.u64(uint64(t.Kind))
		g.u64(uint64(t.K))
		g.u64(uint64(t.J))
		g.ints32(s.Graph.Succ[id])
	}
	g.ints(s.Graph.FactorID)
	g.ints32(s.Graph.ChainNext)
	g.ints(s.Costs.PanelHeight)
	g.ints(s.Costs.Width)
	g.floats(s.Costs.TaskFlops)
	g.floats(s.Prio)
	for _, lv := range []*sched.Levels{s.SolveFwd, s.SolveBwd, s.SolveFwdT, s.SolveBwdT} {
		g.ints32(lv.Order)
		g.ints32(lv.Off)
	}
	return hex.EncodeToString(g.h.Sum(nil))
}

// TestSymbolicGoldenIdentity requires Analyze to reproduce, on every
// small-suite and full-size suite matrix at AnalyzeWorkers 1 and 2, the
// hash recorded from the tree before the structural stages were
// rewritten for speed (testdata/symbolic_golden.json, written by
// `go test ./internal/core -run SymbolicGoldenIdentity -update-golden`
// on that tree): the rewrite changes how fast a Symbolic is built and
// nothing in it. A PR that means to change the analysis regenerates the
// table and says so.
func TestSymbolicGoldenIdentity(t *testing.T) {
	specs := matgen.SmallSuite()
	if !testing.Short() {
		specs = append(specs, matgen.Suite()...)
	}
	got := map[string]string{}
	for _, sp := range specs {
		a := sp.Gen()
		for _, p := range []int{1, 2} {
			opts := DefaultOptions()
			opts.AnalyzeWorkers = p
			s, err := Analyze(a, opts)
			if err != nil {
				t.Fatalf("%s: analyze P=%d: %v", sp.Name, p, err)
			}
			got[fmt.Sprintf("%s/P=%d", sp.Name, p)] = goldenHash(s)
		}
	}
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	for key, h := range got {
		if want[key] == "" {
			t.Errorf("%s: no golden entry", key)
		} else if want[key] != h {
			t.Errorf("%s: Symbolic hash %s, golden %s", key, h, want[key])
		}
	}
}
