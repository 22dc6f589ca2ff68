package core

import (
	"testing"

	"repro/internal/etree"
	"repro/internal/matgen"
	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
	"repro/internal/transversal"
)

// analyzeStage is one stage of the serial Analyze pipeline as a
// function of the state the stages before it left behind. The sequence
// is the one core.Analyze runs with the default options, cut where
// Options.Trace's StageSeconds cuts it.
type analyzeStage struct {
	name string
	run  func(st *stageState) error
}

// stageState carries the intermediate structures from stage to stage.
type stageState struct {
	o           *Options
	a, a1, a2   *sparse.CSC
	pre         *symbolic.Result // before the postorder
	preForest   *etree.Forest
	sym         *symbolic.Result // after it
	part        *supernode.Partition
	bp          *sparse.Pattern
	stored      *symbolic.Result
	blockSym    *symbolic.Result
	blockForest *etree.Forest
	graph       *taskgraph.Graph
}

func analyzeStages() []analyzeStage {
	return []analyzeStage{
		{"transversal", func(st *stageState) error {
			st.a1 = st.a.PermuteRows(transversal.MaximumTransversal(st.a).RowPerm)
			return nil
		}},
		{"ordering", func(st *stageState) error {
			st.a2 = st.a1.PermuteSym(ordering.ColumnOrdering(st.a1, st.o.Ordering))
			return nil
		}},
		{"symbolic", func(st *stageState) (err error) {
			if st.pre, err = symbolic.Factor(st.a2); err == nil {
				st.preForest = etree.LUForest(st.pre)
			}
			return err
		}},
		{"postorder", func(st *stageState) error {
			po := etree.PostorderSymbolic(st.pre, st.preForest)
			st.sym = po.Sym
			return nil
		}},
		{"supernodes", func(st *stageState) error {
			strict := supernode.StrictPartition(st.sym)
			merged := supernode.Amalgamate(strict, st.sym, st.o.Amalgamation)
			st.part = supernode.Split(merged, st.o.Amalgamation.MaxSize)
			st.bp = supernode.BlockPattern(st.sym, st.part)
			return nil
		}},
		{"block symbolic", func(st *stageState) (err error) {
			st.stored = symbolic.FromPattern(st.bp)
			if st.blockSym, err = symbolic.FactorPattern(st.bp); err == nil {
				st.blockForest = etree.LUForest(st.blockSym)
			}
			return err
		}},
		{"task graph", func(st *stageState) error {
			st.graph = taskgraph.NewStored(st.blockSym, st.blockForest, st.stored, st.o.TaskGraph)
			taskgraph.ClosureCounts(st.blockSym, st.blockForest, st.o.TaskGraph)
			costs := taskgraph.NewCostModel(st.graph, st.stored, st.part)
			if _, _, err := st.graph.CriticalPath(costs.TaskFlops); err != nil {
				return err
			}
			_, err := st.graph.BottomLevels(costs.TaskFlops)
			return err
		}},
		{"solve schedules", func(st *stageState) error {
			_, _, err := solveSchedules(st.stored)
			return err
		}},
		{"stats", func(st *stageState) error {
			supernode.ExplicitZeros(st.sym, st.part, st.bp)
			newLayout(st.stored, st.part)
			PatternHash(st.a, st.o)
			return nil
		}},
	}
}

// BenchmarkAnalyzeStages times every stage of the serial Analyze on the
// full-size suite, one sub-benchmark per matrix and stage plus the whole
// call, and reports the stage's nanoseconds per entry of Ā beside
// allocs/op — the number behind "each stage runs in time proportional
// to what it writes".
func BenchmarkAnalyzeStages(b *testing.B) {
	for _, sp := range matgen.Suite() {
		a := sp.Gen()
		st := &stageState{o: DefaultOptions().withDefaults(), a: a}
		stages := analyzeStages()
		for _, sg := range stages {
			if err := sg.run(st); err != nil {
				b.Fatalf("%s: %s: %v", sp.Name, sg.name, err)
			}
		}
		fill := float64(st.sym.NNZ())
		perEntry := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/fill, "ns/entry")
		}
		for _, sg := range stages {
			sg := sg
			b.Run(sp.Name+"/"+sg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := sg.run(st); err != nil {
						b.Fatal(err)
					}
				}
				perEntry(b)
			})
		}
		b.Run(sp.Name+"/analyze", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(a, nil); err != nil {
					b.Fatal(err)
				}
			}
			perEntry(b)
		})
	}
}
