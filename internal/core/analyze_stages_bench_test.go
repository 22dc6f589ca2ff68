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
	a, a1       *sparse.CSC
	fill        sparse.Perm
	a2          *sparse.Pattern
	sym         *symbolic.Result // in the labels of the fill-reducing ordering
	forest      *etree.Forest
	order       []int // the postorder, new label → old
	symPerm     sparse.Perm
	part        *supernode.Partition
	bp, plan    *sparse.Pattern
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
			st.fill = ordering.ColumnOrdering(st.a1, st.o.Ordering)
			st.a2 = sparse.PatternView(st.a1).PermuteSym(st.fill)
			return nil
		}},
		{"symbolic", func(st *stageState) (err error) {
			if st.sym, err = symbolic.FactorPattern(st.a2); err == nil {
				st.forest = etree.LUForest(st.sym)
			}
			return err
		}},
		{"postorder", func(st *stageState) error {
			perm := st.forest.PostOrder()
			st.order = perm.Inverse()
			st.symPerm = st.fill.Compose(perm)
			return nil
		}},
		{"supernodes", func(st *stageState) error {
			strict := supernode.StrictPartitionOrdered(st.sym, st.order)
			merged := supernode.AmalgamateOrdered(strict, st.sym, st.order, st.o.Amalgamation)
			st.part = supernode.Split(merged, st.o.Amalgamation.MaxSize)
			st.bp, st.plan = supernode.BlockPatternOrdered(st.sym, st.order, st.part, strict)
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
			st.graph = taskgraph.NewStored(st.blockForest, st.stored)
			taskgraph.ClosureCounts(st.blockSym, st.blockForest, taskgraph.EForest)
			costs := taskgraph.NewCostModel(st.graph, st.stored, st.part)
			prio, err := st.graph.BottomLevels(costs.TaskFlops)
			cp := 0.0
			for _, p := range prio {
				cp = max(cp, p)
			}
			costs.TotalFlops()
			return err
		}},
		{"solve schedules", func(st *stageState) error {
			_, _, err := solveSchedules(st.stored)
			return err
		}},
		{"stats", func(st *stageState) error {
			supernode.ExplicitZeros(st.sym, st.part, st.bp)
			newLayout(st.stored, st.part, st.plan)
			PatternHash(st.a, st.o)
			return nil
		}},
	}
}

// BenchmarkAnalyzeStages times every stage of the serial Analyze on the
// full-size suite, one sub-benchmark per matrix and stage plus the whole
// call, and reports the stage's nanoseconds per entry of Ā beside
// allocs/op — the number behind "each stage runs in time proportional
// to what it writes". A matrix's stage state is built inside its own
// sub-benchmark, so -bench 'AnalyzeStages/orsreg1/' runs the stages of
// orsreg1 only.
func BenchmarkAnalyzeStages(b *testing.B) {
	for _, sp := range matgen.Suite() {
		b.Run(sp.Name, func(b *testing.B) {
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
				b.Run(sg.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := sg.run(st); err != nil {
							b.Fatal(err)
						}
					}
					perEntry(b)
				})
			}
			b.Run("analyze", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Analyze(a, nil); err != nil {
						b.Fatal(err)
					}
				}
				perEntry(b)
			})
		})
	}
}
