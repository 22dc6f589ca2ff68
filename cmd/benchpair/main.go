// Command benchpair summarises alternating parent/change runs into one
// evidence file. check.sh pair runs the pairs and calls it; it reads the
// reports bench/run.sh -out stored for each side and the outputs of the
// in-process targets' go test -bench runs, pairs them in the order they
// were written, and writes the host, every run's values and, per
// workload and metric, both medians, the parent's quartiles, the
// change's win count and the two-sided sign-test p. A report's metrics
// are its end-to-end metrics; a go test output's are the ns/op of each
// benchmark it printed, lower being better.
//
// Usage:
//
//	benchpair -label solve_stream -parent-ref <ref> -parent-commit <sha> \
//	    -change-commit <sha> -out BENCH_solve_stream.json <parent-dir> <change-dir>
//
// A report, not a gate: it exits non-zero only when it cannot read the
// runs or they do not pair up.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// report is the part of a bench/run.sh -out report that is read here,
// or what parseBenchOutput reads from a go test output.
type report struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Host     hostInfo               `json:"host"`
	Failed   int                    `json:"ops_failed"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// manifest is the part of BENCHMARK.json, read from the working
// directory, that is read here: which way each end-to-end metric is
// better.
type manifest struct {
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

type side struct {
	OpsFailed int                `json:"ops_failed"`
	Values    map[string]float64 `json:"values"`
}

type pairRun struct {
	Pair   int    `json:"pair"`
	First  string `json:"first"`
	Parent side   `json:"parent"`
	Change side   `json:"change"`
}

type summary struct {
	Unit         string  `json:"unit"`
	Better       string  `json:"better"`
	ParentMedian float64 `json:"parent_median"`
	ChangeMedian float64 `json:"change_median"`
	ParentQ1     float64 `json:"parent_q1"`
	ParentQ3     float64 `json:"parent_q3"`
	ParentIQR    float64 `json:"parent_iqr"`
	ChangeWins   int     `json:"change_wins"`
	ChangeLosses int     `json:"change_losses"`
	Ties         int     `json:"ties"`
	SignTestP    float64 `json:"sign_test_p"`
}

type workload struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Pairs    int                `json:"pairs"`
	Runs     []pairRun          `json:"runs"`
	Metrics  map[string]summary `json:"metrics"`
}

type evidence struct {
	Label   string   `json:"label"`
	Command string   `json:"command"`
	Order   string   `json:"order"`
	Stats   string   `json:"stats"`
	Host    hostInfo `json:"host"`
	Parent  struct {
		Ref    string `json:"ref"`
		Commit string `json:"commit"`
	} `json:"parent"`
	Change struct {
		Commit string `json:"commit"`
	} `json:"change"`
	Workloads []workload `json:"workloads"`
}

func main() {
	var (
		label        = flag.String("label", "", "name of the evidence, as in BENCH_<label>.json")
		parentRef    = flag.String("parent-ref", "", "the ref the parent side was checked out from")
		parentCommit = flag.String("parent-commit", "", "the parent side's commit")
		changeCommit = flag.String("change-commit", "", "the change side's commit, with -dirty when the work tree was modified")
		out          = flag.String("out", "", "the evidence file to write")
	)
	flag.Parse()
	if flag.NArg() != 2 || *label == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: benchpair -label <label> -out <file> [flags] <parent-dir> <change-dir>")
		os.Exit(2)
	}
	ev, err := summarise(*label, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		os.Exit(1)
	}
	ev.Parent.Ref, ev.Parent.Commit, ev.Change.Commit = *parentRef, *parentCommit, *changeCommit
	raw, err := json.MarshalIndent(ev, "", " ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		os.Exit(1)
	}
}

// summarise pairs the i-th parent run of each workload with its i-th
// change run, both in file-name order (bench/run.sh names a report by
// workload, seed and time), and summarises every end-to-end metric.
func summarise(label, manifestPath, parentDir, changeDir string) (*evidence, error) {
	better := map[string]string{}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", manifestPath, err)
	}
	for _, e := range m.EndToEnd {
		better[e.Name] = e.Better
	}
	parents, err := readReports(parentDir)
	if err != nil {
		return nil, err
	}
	changes, err := readReports(changeDir)
	if err != nil {
		return nil, err
	}
	ev := &evidence{
		Label:   label,
		Command: "bash bench/run.sh --workload WORKLOAD --seed SEED --seconds 33 --trace 0 -out DIR for a workload, go test -run '^$' -bench REGEXP -count 1 PKG for a target inproc:PKG:REGEXP; in a git worktree of the parent and in the work tree",
		Order:   "pair i runs the parent first when i is odd and the change first when i is even",
		Stats:   "medians and quartiles interpolate between order statistics; a win is a pair whose change value is better than its parent value by the manifest's direction; sign_test_p is the two-sided exact binomial p of the wins against the losses, ties dropped",
	}
	var names []string
	for w := range parents {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, name := range names {
		ps, cs := parents[name], changes[name]
		if len(ps) != len(cs) {
			return nil, fmt.Errorf("workload %s: %d parent runs, %d change runs", name, len(ps), len(cs))
		}
		wl := workload{Workload: name, Seed: ps[0].Seed, Pairs: len(ps), Metrics: map[string]summary{}}
		for i := range ps {
			first := "parent"
			if i%2 == 1 {
				first = "change"
			}
			wl.Runs = append(wl.Runs, pairRun{Pair: i + 1, First: first, Parent: sideOf(ps[i]), Change: sideOf(cs[i])})
		}
		for metric, v := range ps[0].EndToEnd {
			var pv, cv []float64
			for i := range ps {
				c, ok := cs[i].EndToEnd[metric]
				if !ok {
					return nil, fmt.Errorf("workload %s: change run %d has no %s", name, i+1, metric)
				}
				pv = append(pv, ps[i].EndToEnd[metric].Value)
				cv = append(cv, c.Value)
			}
			b := better[metric]
			if v.Unit == "ns/op" {
				b = "lower"
			}
			wl.Metrics[metric] = pairStats(pv, cv, v.Unit, b)
		}
		ev.Workloads = append(ev.Workloads, wl)
		ev.Host = ps[0].Host
	}
	for name := range changes {
		if _, ok := parents[name]; !ok {
			return nil, fmt.Errorf("workload %s: change runs but no parent runs", name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no reports in %s", parentDir)
	}
	return ev, nil
}

func sideOf(r report) side {
	s := side{OpsFailed: r.Failed, Values: map[string]float64{}}
	for k, v := range r.EndToEnd {
		s.Values[k] = v.Value
	}
	return s
}

// readReports reads every *.json report and every *.txt go test output
// in dir, grouped by workload in file-name order.
func readReports(dir string) (map[string][]report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	outputs, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	files = append(files, outputs...)
	sort.Strings(files)
	out := map[string][]report{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if strings.HasSuffix(f, ".txt") {
			r, err = parseBenchOutput(string(raw))
		} else {
			err = json.Unmarshal(raw, &r)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v", f, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, nil
}

// benchLine matches a result line of go test -bench: the name without
// its -GOMAXPROCS suffix, the iterations and the ns/op.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op`)

// parseBenchOutput reads one in-process run as check.sh pair stores it:
// a first line "target: <target>", then go test -bench's output. The
// target is the workload, each benchmark's ns/op a metric. The host is
// the output's cpu line and this process's CPU count, GOMAXPROCS and Go
// version: the pair stage runs both on one host and environment.
func parseBenchOutput(text string) (report, error) {
	r := report{
		Host:     hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		EndToEnd: map[string]metricValue{},
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if t, ok := strings.CutPrefix(line, "target: "); ok && r.Workload == "" {
			r.Workload = t
			continue
		}
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			r.Host.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return r, err
		}
		r.EndToEnd[m[1]] = metricValue{v, "ns/op"}
	}
	if r.Workload == "" || len(r.EndToEnd) == 0 {
		return r, fmt.Errorf("no target line or no benchmark result")
	}
	return r, nil
}

// pairStats compares paired values; better is "higher" or "lower".
func pairStats(parent, change []float64, unit, better string) summary {
	s := summary{Unit: unit, Better: better}
	s.ParentMedian, s.ChangeMedian = quantile(parent, 0.5), quantile(change, 0.5)
	s.ParentQ1, s.ParentQ3 = quantile(parent, 0.25), quantile(parent, 0.75)
	s.ParentIQR = s.ParentQ3 - s.ParentQ1
	for i := range parent {
		d := change[i] - parent[i]
		if better == "lower" {
			d = -d
		}
		switch {
		case d > 0:
			s.ChangeWins++
		case d < 0:
			s.ChangeLosses++
		default:
			s.Ties++
		}
	}
	s.SignTestP = signTest(s.ChangeWins, s.ChangeLosses)
	return s
}

// quantile interpolates linearly between the order statistics of xs
// (the default of R and NumPy).
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	h := p * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// signTest is the two-sided exact binomial p of w successes against l
// failures under p = 1/2: twice the smaller tail, capped at 1.
func signTest(w, l int) float64 {
	n := w + l
	if n == 0 {
		return 1
	}
	k := min(w, l)
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		if i > 0 {
			c = c * float64(n-i+1) / float64(i)
		}
		tail += c
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}
