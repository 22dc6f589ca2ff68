package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestQuantileAndSignTest(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if q1, q3 := quantile(xs, 0.25), quantile(xs, 0.75); q1 != 1.75 || q3 != 3.25 {
		t.Errorf("quartiles of 1..4 = %v, %v, want 1.75, 3.25", q1, q3)
	}
	for _, c := range []struct {
		w, l int
		p    float64
	}{{10, 0, 2.0 / 1024}, {0, 10, 2.0 / 1024}, {9, 1, 22.0 / 1024}, {5, 5, 1}, {0, 0, 1}} {
		if got := signTest(c.w, c.l); math.Abs(got-c.p) > 1e-15 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.w, c.l, got, c.p)
		}
	}
}

// TestSummarisePairsInFileOrder writes three runs a side and checks the
// pairing, the direction each metric is better in and the summaries.
func TestSummarisePairsInFileOrder(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "BENCHMARK.json")
	writeFile(t, manifest, `{"end_to_end":[{"name":"svc_rps","better":"higher"},{"name":"factor_s","better":"lower"}]}`)
	for side, runs := range map[string][][2]float64{
		"parent": {{100, 0.5}, {110, 0.4}, {90, 0.6}},
		"change": {{120, 0.5}, {105, 0.3}, {130, 0.5}},
	} {
		for i, r := range runs {
			writeFile(t, filepath.Join(dir, side, fmt.Sprintf("solve_stream.seed1.e2e.%d.json", 100+i)), fmt.Sprintf(
				`{"workload":"solve_stream","seed":1,"host":{"cpu":"x","nproc":2,"gomaxprocs":2,"go":"go1","commit":"%s"},`+
					`"ops_failed":0,"end_to_end":{"svc_rps":{"value":%v,"unit":"1/s"},"factor_s":{"value":%v,"unit":"s"}}}`, side, r[0], r[1]))
		}
	}
	ev, err := summarise("solve_stream", manifest, filepath.Join(dir, "parent"), filepath.Join(dir, "change"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Workloads) != 1 || ev.Workloads[0].Pairs != 3 || ev.Workloads[0].Runs[1].First != "change" {
		t.Fatalf("workloads %+v", ev.Workloads)
	}
	rps, fs := ev.Workloads[0].Metrics["svc_rps"], ev.Workloads[0].Metrics["factor_s"]
	if rps.ParentMedian != 100 || rps.ChangeMedian != 120 || rps.ChangeWins != 2 || rps.ChangeLosses != 1 || rps.ParentIQR != 10 {
		t.Errorf("svc_rps summary %+v", rps)
	}
	if fs.ChangeWins != 2 || fs.Ties != 1 || fs.ChangeLosses != 0 {
		t.Errorf("factor_s summary %+v", fs)
	}
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
