// Command bench is the repository's benchmark of record. One run drives
// one workload — a full-size suite matrix and a request script — through
// the public sparselu API and the in-process solve service, prints every
// end-to-end metric, and with --trace 1 also times every layer from
// outside and prints the per-layer metrics. See README.md.
//
//	bash bench/run.sh --workload refactor_blocky --seed 1 --seconds 33 --trace 0
//	bash bench/run.sh -compare <setA-dir> <setB-dir>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	// setUps is how often a run sets up; setup_s is the median.
	setUps = 3
	// maxRounds bounds the rounds inputs are generated for, minRounds
	// the rounds a run measures even when the first ones overrun.
	maxRounds, minRounds = 16, 3
	// spanDir receives the traced pass's span file.
	spanDir = "bench-out"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// report is one run's full result: what -out stores and -compare reads.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Smoke     bool             `json:"smoke,omitempty"`
	Host      hostInfo         `json:"host"`
	InputHash string           `json:"input_hash"`
	Rounds    int              `json:"rounds"`
	Attempted int              `json:"ops_attempted"`
	Failed    int              `json:"ops_failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// result is the last line of standard output, in the driver's format.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input (2 is the held-out seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 33, "how long the run takes: set-ups, then rounds until the time is spent")
	flag.IntVar(&traceFlag, "trace", 0, "1: also run the traced pass and print the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "small stand-in matrices, one round (the self-test's shape)")
	flag.StringVar(&cfg.outDir, "out", "", "directory to add this run's full report to, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two directories of reports: -compare <setA> <setB>")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare <setA-dir> <setB-dir>")
		}
		ok, err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	cfg.trace = traceFlag != 0
	rep, err := run(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if cfg.outDir != "" {
		if err := rep.store(cfg.outDir, cfg.trace); err != nil {
			fatal("%v", err)
		}
	}
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
	if cfg.trace {
		res.Metrics = rep.PerLayer
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run sets up, measures and, when asked, traces one workload.
func run(cfg config) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	procs := min(runtime.NumCPU(), 8)
	rounds, least, reps := maxRounds, minRounds, setUps
	if cfg.smoke {
		rounds, least, reps = 1, 1, 1
	}
	t := &tally{}

	// Set up several times and report the median: one set-up is too
	// short and too allocation-heavy to be steady on its own. The last
	// one is kept.
	began := time.Now()
	var e *env
	var setups []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			e.svc.close()
		}
		collect()
		start := time.Now()
		if e, err = setUp(w, cfg.seed, cfg.smoke, rounds, procs, t); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.svc.close()
	before, err := e.svc.counters()
	if err != nil {
		return nil, err
	}

	// The rounds get what the set-ups left of the run's time, so that a
	// run takes --seconds whatever the workload's set-up costs. The
	// traced run measures for less than half of that and spends the rest
	// on the traced pass, so both kinds of run take about as long.
	budget := time.Duration(cfg.seconds*float64(time.Second)) - time.Since(began)
	if cfg.trace {
		budget, least = budget*2/5, min(least, 2)
	}
	samples := e.measure(budget, least, t)
	e2e := endToEndMetrics(median(setups), samples)

	rep := &report{
		Workload: w.name, Seed: cfg.seed, Smoke: cfg.smoke, Host: host(),
		InputHash: e.in.hash, Rounds: samples.rounds, EndToEnd: e2e.vals,
	}
	var layers *metricSet
	if cfg.trace {
		after, err := e.svc.counters()
		if err != nil {
			return nil, err
		}
		var spans *spanLog
		layers, spans = e.tracedPass(e2e, samples, t)
		e.serviceMetrics(layers, samples, after.minus(before))
		rep.PerLayer = layers.vals
		if err := spans.write(filepath.Join(spanDir, w.name+".spans.json")); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed = t.attempted, t.failed

	rep.Host.print()
	fmt.Printf("workload %s  matrix %s  n %d  seed %d  input_hash %s  rounds %d  P %d\n",
		w.name, w.matrix, e.in.n, cfg.seed, e.in.hash, samples.rounds, procs)
	fmt.Printf("samples: time_to_solution %d, factor %d, solve %d, svc factorize %d, svc solve %d\n",
		len(samples.tts), len(samples.factor), len(samples.solve), len(samples.svcFactorize), len(samples.svcSolve))
	e2e.print("end-to-end (untraced pass, medians over the rounds' samples)")
	if layers != nil {
		layers.print("per-layer (traced pass; spans in " + spanDir + "/" + w.name + ".spans.json)")
	}
	fmt.Printf("ops_attempted %d  ops_failed %d\n", rep.Attempted, rep.Failed)

	missing := e2e.missing()
	if layers != nil {
		missing = append(missing, layers.missing()...)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	return rep, nil
}

// store adds the report to dir under a name no other run uses.
func (r *report) store(dir string, traced bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if traced {
		kind = "traced"
	}
	name := fmt.Sprintf("%s.seed%d.%s.%d.json", r.Workload, r.Seed, kind, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}
