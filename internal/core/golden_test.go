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

// structureHash is the sha256 of everything a Symbolic retains that the
// numeric and solve phases or the paper's tables read, but for the task
// graph — the permutations, the views of the stored and closed block
// structures, the block forest, the partition, the statistics (wall clock
// excluded) and the four solve schedules
// (SolveFwd, SolveBwd and the level-reversed forms of SolveBwd and
// SolveFwd that the transpose solve once ran on) — together with the
// scalar Ā and eforest that Analyze drops, rebuilt from a through
// Symbolic.Scalar. The bytes go in the order they were recorded in, when
// the Symbolic still kept the scalar structure, which keeps the hashes.
func structureHash(t testing.TB, s *Symbolic, a *sparse.CSC) string {
	t.Helper()
	sym, forest, err := s.Scalar(a)
	if err != nil {
		t.Fatal(err)
	}
	g := &goldenHasher{h: sha256.New()}
	for _, v := range [][]int{s.RowPerm, s.SymPerm, s.SolvePerm, sym.L.ColPtr, sym.L.RowInd, s.BlockSym.L.ColPtr, s.BlockSym.L.RowInd} {
		g.ints(v)
	}
	stats := s.Stats
	stats.AnalyzeSeconds = 0
	fmt.Fprint(g.h, statsFields(stats, false))

	// The column views of Ū are derived: a Result keeps Ū by rows only.
	for _, p := range []*sparse.Pattern{sym.UCols(), sym.URows, s.Stored.L, s.Stored.UCols(), s.Stored.URows, s.BlockSym.UCols(), s.BlockSym.URows} {
		g.pattern(p)
	}
	g.ints(forest.Parent)
	g.ints(s.BlockForest.Parent)
	g.ints(s.Part.BlockStart)
	for _, lv := range []*sched.Levels{s.SolveFwd, s.SolveBwd, reversedLevels(s.SolveBwd), reversedLevels(s.SolveFwd)} {
		g.ints32(lv.Order)
		g.ints32(lv.Off)
	}
	return hex.EncodeToString(g.h.Sum(nil))
}

// reversedLevels returns lv's level sets in the opposite order.
func reversedLevels(lv *sched.Levels) *sched.Levels {
	order := make([]int32, 0, len(lv.Order))
	off := []int32{0}
	for l := lv.NumLevels() - 1; l >= 0; l-- {
		order = append(order, lv.Order[lv.Off[l]:lv.Off[l+1]]...)
		off = append(off, int32(len(order)))
	}
	return sched.NewLevels(order, off)
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
		a := sp.Gen()
		s, err := Analyze(a, nil)
		if err != nil {
			t.Fatalf("%s: analyze: %v", sp.Name, err)
		}
		got[sp.Name+"/P=1/structure"] = structureHash(t, s, a)
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
