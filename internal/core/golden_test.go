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
	"reflect"
	"strings"
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

// graphStats names the AnalysisStats fields that describe the task graph
// the numeric phase runs: they go into the graph hash, every other field
// into the structure hash.
var graphStats = map[string]bool{"StoredTasks": true, "StoredEdges": true}

// statsFields prints the fields of st that graphStats puts on the graph
// side (graph) or on the structure side (!graph), name by name, so that
// adding a field to one side leaves the other side's text unchanged.
func statsFields(st AnalysisStats, graph bool) string {
	v := reflect.ValueOf(st)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; graphStats[name] == graph {
			fmt.Fprintf(&b, "%s:%v ", name, v.Field(i))
		}
	}
	return b.String()
}

// structureHash is the sha256 of fingerprint(s) — wall clock excluded,
// Autotune never part of it — followed by everything else a Symbolic
// retains that the numeric and solve phases or the paper's tables read,
// but for the task graph: the other views of Ā and of the stored and
// closed block structures, the forests, the partition and the four solve
// schedules.
func structureHash(s *Symbolic) string {
	g := &goldenHasher{h: sha256.New()}
	fp := structFingerprint(s)
	for _, v := range [][]int{fp.rowPerm, fp.symPerm, fp.solvePerm, fp.symColPtr, fp.symRowInd, fp.blockColPtr, fp.blockRowInd} {
		g.ints(v)
	}
	fmt.Fprint(g.h, statsFields(fp.stats, false))

	g.pattern(s.Sym.U)
	g.pattern(s.Sym.URows)
	for _, p := range []*sparse.Pattern{s.Stored.L, s.Stored.U, s.Stored.URows, s.BlockSym.U, s.BlockSym.URows} {
		g.pattern(p)
	}
	g.ints(s.Forest.Parent)
	g.ints(s.BlockForest.Parent)
	g.ints(s.Part.BlockStart)
	for _, lv := range []*sched.Levels{s.SolveFwd, s.SolveBwd, s.SolveFwdT, s.SolveBwdT} {
		g.ints32(lv.Order)
		g.ints32(lv.Off)
	}
	return hex.EncodeToString(g.h.Sum(nil))
}

// graphHash is the sha256 of the task graph the numeric phase runs — its
// tasks, edges and chains, their costs and priorities — and of the
// statistics that describe it.
func graphHash(s *Symbolic) string {
	g := &goldenHasher{h: sha256.New()}
	fmt.Fprint(g.h, statsFields(s.Stats, true))
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
	return hex.EncodeToString(g.h.Sum(nil))
}

// TestSymbolicGoldenIdentity requires Analyze to reproduce, on every
// small-suite and full-size suite matrix, two hashes recorded in
// testdata/symbolic_golden.json (written by `go test ./internal/core -run
// SymbolicGoldenIdentity -update-golden`): the structure hash, unchanged
// since the structural stages were rewritten for speed, and the graph
// hash, recorded when the numeric phase's task graph moved from the
// block-level closure to the stored blocks — a change that left every
// structure hash as it was. Keys carry the "/P=1" suffix they were first
// recorded under. A PR that means to change the analysis regenerates the
// table and says which of the two kinds moved.
func TestSymbolicGoldenIdentity(t *testing.T) {
	specs := matgen.SmallSuite()
	if !testing.Short() {
		specs = append(specs, matgen.Suite()...)
	}
	got := map[string]string{}
	for _, sp := range specs {
		s, err := Analyze(sp.Gen(), nil)
		if err != nil {
			t.Fatalf("%s: analyze: %v", sp.Name, err)
		}
		got[sp.Name+"/P=1/structure"] = structureHash(s)
		got[sp.Name+"/P=1/graph"] = graphHash(s)
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
			t.Errorf("%s: hash %s, golden %s", key, h, want[key])
		}
	}
}
