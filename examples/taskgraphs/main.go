// Task-graph anatomy: builds both dependence graphs for a benchmark
// matrix and reports the structural quantities behind the paper's
// Figures 5–6 — edges, the weighted critical path, the available
// parallelism, and the simulated Origin 2000 makespans at P = 2…8.
//
// This example uses the internal packages directly (it ships inside the
// module); library users get the same numbers through
// sparselu.Analysis.Stats.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func main() {
	var spec matgen.Spec
	for _, s := range matgen.SmallSuite() {
		if s.Name == "goodwin-s" {
			spec = s
		}
	}
	a := spec.Gen()
	fmt.Printf("%s: n = %d, nnz = %d\n\n", spec.Name, a.NCols, a.NNZ())

	s, err := core.Analyze(a, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("supernode blocks: %d, structurally nonzero blocks: %d\n\n",
		s.Stats.Blocks, s.Stats.BlockNNZ)

	for _, variant := range []taskgraph.Variant{taskgraph.SStar, taskgraph.EForest} {
		g := taskgraph.New(s.BlockSym, s.BlockForest, variant)
		cm := taskgraph.NewCostModel(g, s.Stored, s.Part)
		cp, total, err := g.CriticalPath(cm.TaskFlops)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s graph:\n", variant)
		fmt.Printf("  %d tasks, %d edges\n", g.NumTasks(), g.NumEdges)
		fmt.Printf("  total work %.3g flops, critical path %.3g flops, avg parallelism %.2f\n",
			total, cp, total/cp)
		for _, p := range []int{2, 4, 8} {
			res, err := sched.Simulate(g, cm, sched.Origin2000(p),
				sched.PanelWords(g, cm), nil, sched.Perturb{Amplitude: 0.5, Seed: 2000})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  simulated Origin 2000, P=%d: %.4fs (efficiency %.0f%%)\n",
				p, res.Makespan, 100*res.Efficiency())
		}
		fmt.Println()
	}
}
