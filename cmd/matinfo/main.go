// Command matinfo prints the structural analysis of a sparse matrix:
// static symbolic fill, the LU elimination forest, the effect of
// postordering, the supernode partition and both task dependence graphs.
//
// Usage:
//
//	matinfo -gen sherman3            # a generated benchmark matrix
//	matinfo -matrix system.mtx       # a MatrixMarket file
//	matinfo -example                 # the paper's 7×7 worked example
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/etree"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/symbolic"
	"repro/internal/taskgraph"
)

func main() {
	var (
		matrixPath = flag.String("matrix", "", "MatrixMarket file")
		gen        = flag.String("gen", "", "generated benchmark matrix name")
		example    = flag.Bool("example", false, "walk through the paper's worked example")
		spy        = flag.Bool("spy", false, "print ASCII density plots of A and of the factored structure Ā")
	)
	flag.Parse()

	if *example {
		runExample()
		return
	}
	var a *sparse.CSC
	var name string
	switch {
	case *matrixPath != "":
		f, err := os.Open(*matrixPath)
		if err != nil {
			fatalf("%v", err)
		}
		var rerr error
		a, rerr = sparse.ReadMatrixMarket(f)
		f.Close()
		if rerr != nil {
			fatalf("%v", rerr)
		}
		name = *matrixPath
	case *gen != "":
		for _, spec := range append(matgen.Suite(), matgen.SmallSuite()...) {
			if spec.Name == *gen {
				a = spec.Gen()
				name = spec.Name
				break
			}
		}
		if a == nil {
			fatalf("unknown generator %q", *gen)
		}
	default:
		fatalf("need -matrix, -gen or -example")
	}

	report(name, a)
	if *spy {
		fmt.Println("structure of A:")
		fmt.Print(spyPlot(sparse.PatternOf(a), 60))
		opts := core.DefaultOptions()
		s, err := core.Analyze(a, opts)
		if err != nil {
			fatalf("%v", err)
		}
		sym, _, err := s.Scalar(a)
		if err != nil {
			fatalf("%v", err)
		}
		full := sym.L.ToCSC(1)
		ut := sym.UCols().ToCSC(1)
		merged := sparse.NewTriplet(a.NCols, a.NCols)
		for j := 0; j < a.NCols; j++ {
			rows, _ := full.Col(j)
			for _, i := range rows {
				merged.Add(i, j, 1)
			}
			urows, _ := ut.Col(j)
			for _, i := range urows {
				merged.Add(i, j, 1)
			}
		}
		fmt.Println("structure of Abar (after transversal, minimum degree and postordering):")
		fmt.Print(spyPlot(sparse.PatternOf(merged.ToCSC()), 60))
	}
}

// spyPlot renders the density of an n×n pattern as a width×width ASCII
// grid: ' ' empty, '.' sparse, ':' denser, '#' dense.
func spyPlot(p *sparse.Pattern, width int) string {
	n := p.NCols
	if n < width {
		width = n
	}
	cell := make([][]int, width)
	for i := range cell {
		cell[i] = make([]int, width)
	}
	for j := 0; j < n; j++ {
		cj := j * width / n
		for _, i := range p.Col(j) {
			cell[i*width/n][cj]++
		}
	}
	area := float64(n) * float64(n) / float64(width) / float64(width)
	var b strings.Builder
	for _, row := range cell {
		for _, c := range row {
			frac := float64(c) / area
			switch {
			case c == 0:
				b.WriteByte(' ')
			case frac < 0.05:
				b.WriteByte('.')
			case frac < 0.25:
				b.WriteByte(':')
			default:
				b.WriteByte('#')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func report(name string, a *sparse.CSC) {
	fmt.Printf("%s: %d×%d, %d nonzeros\n\n", name, a.NRows, a.NCols, a.NNZ())

	for _, post := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.Postorder = post
		s, err := core.Analyze(a, opts)
		if err != nil {
			fatalf("analysis: %v", err)
		}
		st := s.Stats
		label := "without postordering"
		if post {
			label = "with postordering"
		}
		fmt.Printf("%s:\n", label)
		fmt.Printf("  |Abar| = %d (fill ratio %.1f)\n", st.NNZFactors, st.FillRatio)
		fmt.Printf("  eforest trees = %d\n", st.NumTrees)
		fmt.Printf("  supernodes: strict %d, final %d (split +%d)\n",
			st.StrictSN, st.Supernodes, st.SplitBlocks)
		fmt.Printf("  panels: %d blocks, avg width %.1f, max width %d\n",
			s.Part.NumBlocks(), st.AvgBlockWidth, st.MaxBlockWidth)
		fmt.Printf("  explicit zeros: %d (%.2f%% of stored factor entries)\n",
			st.ExplicitZeros, 100*st.ExplicitZeroRatio)
		fmt.Printf("  stored: %d blocks, %d entries; block closure (scheduling only): %d blocks, %d entries\n",
			st.StoredBlocks, st.StoredEntries, st.BlockNNZ, supernode.DenseEntries(s.BlockSym, s.Part))
		// The stored-block graph the numeric phase runs weighs what the
		// paper's graph on the closure weighs.
		fmt.Printf("  eforest  stored graph: %d tasks, %d edges; avg parallelism %.1f\n",
			st.StoredTasks, st.StoredEdges, st.TotalFlops/st.CriticalPath)
		for _, variant := range []taskgraph.Variant{taskgraph.SStar, taskgraph.EForest} {
			tasks, edges := taskgraph.ClosureCounts(s.BlockSym, s.BlockForest, variant)
			fmt.Printf("  %-8s closure graph: %d tasks, %d edges\n", variant, tasks, edges)
		}
		fmt.Println()
	}
}

// runExample reproduces the paper's Figures 1–4 flow on the 7×7 example
// used throughout the test suite.
func runExample() {
	t := sparse.NewTriplet(7, 7)
	entries := [][2]int{
		{0, 0}, {0, 3}, {1, 1}, {1, 4}, {2, 2}, {2, 5},
		{3, 0}, {3, 3}, {3, 6}, {4, 1}, {4, 4}, {4, 6},
		{5, 2}, {5, 5}, {5, 6}, {6, 3}, {6, 4}, {6, 5}, {6, 6},
	}
	for k, e := range entries {
		t.Add(e[0], e[1], float64(k+1))
	}
	a := t.ToCSC()
	fmt.Println("Matrix A (the worked example, cf. the paper's Figure 1):")
	fmt.Println(a)

	sym, err := symbolic.Factor(a)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("Static symbolic factorization: |Abar| = %d (fill ratio %.2f)\n\n", sym.NNZ(), sym.FillRatio(a.NNZ()))

	f := etree.LUForest(sym)
	fmt.Println("LU elimination forest (Definition 1): parent vector")
	for j, p := range f.Parent {
		if p == etree.None {
			fmt.Printf("  parent(%d) = — (root)\n", j)
		} else {
			fmt.Printf("  parent(%d) = %d\n", j, p)
		}
	}
	fmt.Println()

	po := etree.PostorderSymbolic(sym, f)
	fmt.Printf("Postorder permutation (Section 3): %v\n", []int(po.Perm))
	ranges := po.Forest.TreeRanges()
	fmt.Printf("Block upper triangular diagonal ranges: %v\n\n", ranges)

	part := supernode.StrictPartition(po.Sym)
	fmt.Printf("L/U supernodes after postordering: %d blocks, starts %v\n\n", part.NumBlocks(), part.BlockStart)

	blockSym, err := symbolic.FactorPattern(supernode.BlockPattern(po.Sym, part))
	if err != nil {
		fatalf("%v", err)
	}
	bf := etree.LUForest(blockSym)
	for _, variant := range []taskgraph.Variant{taskgraph.SStar, taskgraph.EForest} {
		g := taskgraph.New(blockSym, bf, variant)
		fmt.Printf("%s task dependence graph (cf. Figure 4): %d tasks, %d edges\n", variant, g.NumTasks(), g.NumEdges)
		for id, succ := range g.Succ {
			if len(succ) == 0 {
				continue
			}
			fmt.Printf("  %-8v →", g.Tasks[id])
			for _, s := range succ {
				fmt.Printf(" %v", g.Tasks[s])
			}
			fmt.Println()
		}
		cp, total, _ := g.CriticalPath(nil)
		fmt.Printf("  unit critical path %g of %g tasks\n\n", cp, total)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "matinfo: "+format+"\n", args...)
	os.Exit(1)
}
