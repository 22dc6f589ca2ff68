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
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/matgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and prints the requested
// tables, figures and ablations to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ExitOnError)
	var (
		table    = fs.Int("table", 0, "regenerate table 1, 2 or 3")
		figure   = fs.Int("figure", 0, "regenerate figure 5 or 6")
		all      = fs.Bool("all", false, "regenerate every table and figure")
		smallSz  = fs.Bool("small", false, "use the reduced-order suite")
		modeStr  = fs.String("mode", "sim", "timing mode: sim (Origin 2000 simulator) or real (wall clock)")
		procsStr = fs.String("procs", "1,2,4,8", "processor counts")
		ablation = fs.Bool("ablation", false, "run the ablation studies from DESIGN.md")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning an error

	mode := experiments.Sim
	switch *modeStr {
	case "sim":
	case "real":
		mode = experiments.Real
	default:
		return fmt.Errorf("unknown -mode %q (want sim or real)", *modeStr)
	}
	procs, err := parseProcs(*procsStr)
	if err != nil {
		return err
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
			return fmt.Errorf("table 1: %w", err)
		}
		fmt.Fprintln(out, experiments.FormatTable1(rows))
	}
	if *all || *table == 2 {
		rows, err := experiments.Table2(specs, procs, mode)
		if err != nil {
			return fmt.Errorf("table 2: %w", err)
		}
		fmt.Fprintln(out, experiments.FormatTable2(rows, mode))
	}
	if *all || *table == 3 {
		rows, err := experiments.Table3(specs)
		if err != nil {
			return fmt.Errorf("table 3: %w", err)
		}
		fmt.Fprintln(out, experiments.FormatTable3(rows))
	}
	figProcs := dropOne(procs)
	if *all || *figure == 5 {
		rows, err := experiments.Figure(experiments.FilterSpecs(specs, experiments.Figure5Matrices), figProcs, mode)
		if err != nil {
			return fmt.Errorf("figure 5: %w", err)
		}
		fmt.Fprintln(out, experiments.FormatFigure(rows, 5, mode))
	}
	if *all || *figure == 6 {
		rows, err := experiments.Figure(experiments.FilterSpecs(specs, experiments.Figure6Matrices), figProcs, mode)
		if err != nil {
			return fmt.Errorf("figure 6: %w", err)
		}
		fmt.Fprintln(out, experiments.FormatFigure(rows, 6, mode))
	}
	if *ablation {
		return runAblations(out, specs, procs)
	}
	return nil
}

func runAblations(out io.Writer, specs []matgen.Spec, procs []int) error {
	p := procs[len(procs)-1]
	rows, err := experiments.AblationPostorderTime(specs, p)
	if err != nil {
		return fmt.Errorf("ablation postorder: %w", err)
	}
	fmt.Fprintln(out, experiments.FormatAblation(fmt.Sprintf("Ablation: simulated factorization time (s) with/without postordering, P=%d.", p), rows))

	am, err := experiments.AblationAmalgamation(specs[0], []int{1, 4, 8, 16, 32}, p)
	if err != nil {
		return fmt.Errorf("ablation amalgamation: %w", err)
	}
	fmt.Fprintln(out, experiments.FormatAblation(fmt.Sprintf("Ablation: amalgamation MaxSize sweep on %s (simulated seconds, P=%d).", specs[0].Name, p), am))

	mp, err := experiments.AblationMapping(specs[0])
	if err != nil {
		return fmt.Errorf("ablation mapping: %w", err)
	}
	fmt.Fprintln(out, experiments.FormatAblation(fmt.Sprintf("Ablation: task-level scheduling vs fixed mappings on %s (simulated seconds, P=8, executed as planned).", specs[0].Name), mp))

	or, err := experiments.AblationOrdering(specs)
	if err != nil {
		return fmt.Errorf("ablation ordering: %w", err)
	}
	fmt.Fprintln(out, experiments.FormatAblation("Ablation: fill ratio |Abar|/|A| by ordering method.", or))

	bounds, err := experiments.StructureBounds(specs)
	if err != nil {
		return fmt.Errorf("structure bounds: %w", err)
	}
	fmt.Fprintln(out, experiments.FormatBounds(bounds))

	but, err := experiments.BlockUTCheck(specs)
	if err != nil {
		return fmt.Errorf("block upper triangular check: %w", err)
	}
	fmt.Fprint(out, experiments.FormatAblation("Check: block upper triangular decomposition holds; diagonal block counts.", but))
	return nil
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
