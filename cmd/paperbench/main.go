// Command paperbench regenerates every table and figure of the paper's
// evaluation section (Cosnard & Grigori, IPPS 2000).
//
// Usage:
//
//	paperbench -all                 # everything, full-size matrices
//	paperbench -table 1             # one table (1, 2 or 3)
//	paperbench -figure 5            # one figure (5 or 6)
//	paperbench -small               # reduced-order suite (quick)
//	paperbench -mode real           # wall-clock on this host instead of
//	                                # the Origin 2000 simulator
//	paperbench -procs 1,2,4,8,16    # processor counts for table 2
//	paperbench -ablation            # the DESIGN.md ablation studies
//
// The default mode is the deterministic discrete-event simulator with an
// Origin 2000 machine model; see DESIGN.md for why that substitution
// preserves the paper's comparisons.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/matgen"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate table 1, 2 or 3")
		figure   = flag.Int("figure", 0, "regenerate figure 5 or 6")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		smallSz  = flag.Bool("small", false, "use the reduced-order suite")
		modeStr  = flag.String("mode", "sim", "timing mode: sim (Origin 2000 simulator) or real (wall clock)")
		procsStr = flag.String("procs", "1,2,4,8", "processor counts")
		ablation = flag.Bool("ablation", false, "run the ablation studies from DESIGN.md")
	)
	flag.Parse()

	mode := experiments.Sim
	switch *modeStr {
	case "sim":
	case "real":
		mode = experiments.Real
	default:
		fatalf("unknown -mode %q (want sim or real)", *modeStr)
	}
	procs, err := parseProcs(*procsStr)
	if err != nil {
		fatalf("%v", err)
	}
	specs := matgen.Suite()
	if *smallSz {
		specs = matgen.SmallSuite()
	}

	if !*all && *table == 0 && *figure == 0 && !*ablation {
		*all = true
	}

	if *all || *table == 1 {
		rows, err := experiments.Table1(specs)
		if err != nil {
			fatalf("table 1: %v", err)
		}
		fmt.Print(experiments.FormatTable1(rows))
		fmt.Println()
	}
	if *all || *table == 2 {
		rows, err := experiments.Table2(specs, procs, mode)
		if err != nil {
			fatalf("table 2: %v", err)
		}
		fmt.Print(experiments.FormatTable2(rows, mode))
		fmt.Println()
	}
	if *all || *table == 3 {
		rows, err := experiments.Table3(specs)
		if err != nil {
			fatalf("table 3: %v", err)
		}
		fmt.Print(experiments.FormatTable3(rows))
		fmt.Println()
	}
	figProcs := dropOne(procs)
	if *all || *figure == 5 {
		rows, err := experiments.Figure(experiments.FilterSpecs(specs, experiments.Figure5Matrices), figProcs, mode)
		if err != nil {
			fatalf("figure 5: %v", err)
		}
		fmt.Print(experiments.FormatFigure(rows, 5, mode))
		fmt.Println()
	}
	if *all || *figure == 6 {
		rows, err := experiments.Figure(experiments.FilterSpecs(specs, experiments.Figure6Matrices), figProcs, mode)
		if err != nil {
			fatalf("figure 6: %v", err)
		}
		fmt.Print(experiments.FormatFigure(rows, 6, mode))
		fmt.Println()
	}
	if *ablation {
		runAblations(specs, procs)
	}
}

func runAblations(specs []matgen.Spec, procs []int) {
	p := 4
	if len(procs) > 0 {
		p = procs[len(procs)-1]
	}
	rows, err := experiments.AblationPostorderTime(specs, p)
	if err != nil {
		fatalf("ablation postorder: %v", err)
	}
	fmt.Print(experiments.FormatAblation(fmt.Sprintf("Ablation: simulated factorization time (s) with/without postordering, P=%d.", p), rows))
	fmt.Println()

	am, err := experiments.AblationAmalgamation(specs[0], []int{1, 4, 8, 16, 32, 64}, p)
	if err != nil {
		fatalf("ablation amalgamation: %v", err)
	}
	fmt.Print(experiments.FormatAblation(fmt.Sprintf("Ablation: amalgamation MaxSize sweep on %s (simulated seconds, P=%d).", specs[0].Name, p), am))
	fmt.Println()

	or, err := experiments.AblationOrdering(specs)
	if err != nil {
		fatalf("ablation ordering: %v", err)
	}
	fmt.Print(experiments.FormatAblation("Ablation: fill ratio |Abar|/|A| by ordering method.", or))
	fmt.Println()

	bounds, err := experiments.StructureBounds(specs)
	if err != nil {
		fatalf("structure bounds: %v", err)
	}
	fmt.Print(experiments.FormatBounds(bounds))
	fmt.Println()

	but, err := experiments.BlockUTCheck(specs)
	if err != nil {
		fatalf("block upper triangular check: %v", err)
	}
	fmt.Print(experiments.FormatAblation("Check: block upper triangular decomposition holds; diagonal block counts.", but))
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no processor counts given")
	}
	return out, nil
}

// dropOne removes P=1 from the list (the figures start at 2 processors).
func dropOne(procs []int) []int {
	var out []int
	for _, p := range procs {
		if p > 1 {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []int{2, 4, 8}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paperbench: "+format+"\n", args...)
	os.Exit(1)
}
