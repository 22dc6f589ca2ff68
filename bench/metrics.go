package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one metric of the benchmark and its unit. The two
// tables below are the program's side of BENCHMARK.json: the self-test
// checks that names and units agree with the manifest, which adds the
// direction and, for end-to-end metrics, the regression bound.
type metricDef struct {
	name, unit string
	// exact marks a number that depends on the seeded inputs alone, so
	// that two runs of one seed must print the same value to the last
	// digit; the comparator and the self-test hold them to that.
	exact bool
}

// endToEnd lists what a user of the library or the service sees: how
// long until a system is solved, how long a refactorization takes, what
// the service sustains, and what holding the result costs. Every
// workload prints every one of them; all come from the untraced pass.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "time_to_solution_s", unit: "s"},
	{name: "factor_s", unit: "s"},
	{name: "resident_mb", unit: "MB"},
	{name: "svc_rps", unit: "1/s"},
}

// perLayer lists the single-layer numbers printed by a traced run,
// prefixed by the module they time or count.
var perLayer = []metricDef{
	// One span per Analyze stage, replayed from outside in
	// core.Analyze's order (layers.go).
	{name: "transversal.match_s", unit: "s"},
	{name: "ordering.colorder_s", unit: "s"},
	{name: "symbolic.factor_s", unit: "s"},
	{name: "symbolic.factor_par_s", unit: "s"},
	{name: "etree.postorder_s", unit: "s"},
	{name: "supernode.partition_s", unit: "s"},
	{name: "symbolic.block_factor_s", unit: "s"},
	{name: "taskgraph.build_s", unit: "s"},
	{name: "core.analyze_serial_s", unit: "s"},
	{name: "core.analyze_replay_coverage", unit: "ratio"},
	// Structure: a function of the seeded pattern alone.
	{name: "symbolic.fill_nnz", unit: "count", exact: true},
	{name: "etree.trees", unit: "count", exact: true},
	{name: "supernode.blocks", unit: "count", exact: true},
	{name: "supernode.avg_width", unit: "cols", exact: true},
	{name: "supernode.explicit_zero_ratio", unit: "ratio", exact: true},
	{name: "taskgraph.tasks", unit: "count", exact: true},
	{name: "taskgraph.edges", unit: "count", exact: true},
	{name: "taskgraph.total_flops", unit: "flop", exact: true},
	{name: "taskgraph.critical_path_share", unit: "ratio", exact: true},
	// Engine cost with empty task bodies, and realized utilization.
	{name: "sched.dispatch_ns_per_task", unit: "ns"},
	{name: "sched.dispatch_par_ns_per_task", unit: "ns"},
	{name: "sched.levels_ns_per_task", unit: "ns"},
	{name: "sched.par_utilization", unit: "ratio"},
	// Dense kernels at the big-tile and the narrow-panel shape.
	{name: "blas.dgemm_256_gflops", unit: "GFLOPS"},
	{name: "blas.dgemm_small_gflops", unit: "GFLOPS"},
	{name: "blas.dtrsm_256_gflops", unit: "GFLOPS"},
	{name: "blas.panel_lu_1024x32_gflops", unit: "GFLOPS"},
	// The parts of time_to_solution_s (its one Solve is core.solve_par_s).
	{name: "core.analyze_s", unit: "s"},
	{name: "core.factor_par_s", unit: "s"},
	// Numeric phase: who is busy in the serial factorization.
	{name: "core.numeric_gflops", unit: "GFLOPS"},
	{name: "core.kernel_gap", unit: "ratio"},
	{name: "core.factor_busy_s", unit: "s"},
	{name: "core.update_busy_s", unit: "s"},
	{name: "core.numeric_nontask_s", unit: "s"},
	{name: "core.par_speedup", unit: "ratio"},
	{name: "core.trace_overhead_ratio", unit: "ratio"},
	// Triangular solves used six ways.
	{name: "core.solve_s", unit: "s"},
	{name: "core.solve16_s", unit: "s"},
	{name: "core.solve_par_s", unit: "s"},
	{name: "core.solve_transpose_s", unit: "s"},
	{name: "core.solve_refined_s", unit: "s"},
	{name: "core.solve16_per_rhs_ratio", unit: "ratio"},
	{name: "core.solve_fwd_busy_s", unit: "s"},
	{name: "core.solve_bwd_busy_s", unit: "s"},
	// Reanalysis.
	{name: "core.reanalyze_delta_s", unit: "s"},
	{name: "core.reanalyze_full_s", unit: "s"},
	{name: "core.reanalyze_delta_share", unit: "ratio"},
	{name: "sparse.mm_read_mb_per_s", unit: "MB/s"},
	// Service, from the client side and from /metrics.
	{name: "server.solve_p50_ms", unit: "ms"},
	{name: "server.factorize_p50_ms", unit: "ms"},
	{name: "server.solve_p90_ms", unit: "ms"},
	{name: "server.factorize_p90_ms", unit: "ms"},
	{name: "server.solve_samples", unit: "samples"},
	{name: "server.factorize_samples", unit: "samples"},
	{name: "server.solve_overhead_ms", unit: "ms"},
	{name: "server.factorize_overhead_ratio", unit: "ratio"},
	{name: "server.cache_hit_ratio", unit: "ratio"},
	{name: "server.batch_mean_rhs", unit: "rhs"},
	{name: "server.shed", unit: "count"},
	{name: "server.request_mb", unit: "MB"},
	{name: "host.calib_s", unit: "s"},
	{name: "host.nproc", unit: "cpus"},
}

// value is one measured metric. Unmeasured marks a parallel metric the
// host cannot measure (fewer than two processors): the text report
// prints the word, the JSON result carries 0.
type value struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Unmeasured bool    `json:"unmeasured,omitempty"`
}

// metricSet collects the values of one group against its definition
// table, so a name that is not defined, or is set twice, is a bug
// caught at once.
type metricSet struct {
	defs []metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]value, len(defs))}
}

func (s *metricSet) unitOf(name string) string {
	for _, d := range s.defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: metric " + name + " is not defined")
}

func (s *metricSet) set(name string, v float64) {
	if _, dup := s.vals[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	s.vals[name] = value{Value: v, Unit: s.unitOf(name)}
}

func (s *metricSet) unmeasured(name string) {
	s.set(name, 0)
	s.vals[name] = value{Unit: s.unitOf(name), Unmeasured: true}
}

func (s *metricSet) get(name string) float64 { return s.vals[name].Value }

// missing reports the defined names that have no finite value yet.
func (s *metricSet) missing() []string {
	var out []string
	for _, d := range s.defs {
		v, ok := s.vals[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out = append(out, d.name)
		}
	}
	return out
}

func (s *metricSet) print(title string) {
	fmt.Printf("%s\n", title)
	for _, d := range s.defs {
		v := s.vals[d.name]
		if v.Unmeasured {
			fmt.Printf("  %-34s %14s %s\n", d.name, "unmeasured", d.unit)
			continue
		}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v.Value, d.unit)
	}
}

// median returns the middle value (the mean of the middle two for an
// even count); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// manifest is the part of BENCHMARK.json the program reads: the
// comparator needs directions and bounds, the self-test names and units.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
