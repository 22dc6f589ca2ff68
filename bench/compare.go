package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadSet reads every report in dir and groups them by workload.
func loadSet(dir string) (map[string][]*report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no reports", dir)
	}
	set := make(map[string][]*report)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set[r.Workload] = append(set[r.Workload], &r)
	}
	return set, nil
}

// values collects one end-to-end metric over a set's untraced runs; a
// traced run measures for less than half as long and would dilute them.
func values(reports []*report, name string) []float64 {
	var out []float64
	for _, r := range reports {
		if v, ok := r.EndToEnd[name]; ok && r.PerLayer == nil {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareSets prints, per workload and end-to-end metric, the medians
// of two sets of runs, how much B differs from A (positive is worse) and
// the bound from the manifest. It reports false when the medians differ
// by more than the bound in either direction — two sets of one commit
// have to agree, and a change that claims a gain shows it here — when a
// run had failed operations, or when a per-layer metric that depends on
// the seeded inputs alone differs between any two runs of one workload
// and seed: such numbers compare two versions of one program only if
// they repeat exactly.
func compareSets(w io.Writer, manifestPath, dirA, dirB string) (bool, error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	setA, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	setB, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-20s %-22s %12s %12s %8s %7s\n", "workload", "metric", "median A", "median B", "worse", "bound")
	for _, wl := range man.Workloads {
		a, b := setA[wl.Name], setB[wl.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		both := append(append([]*report(nil), a...), b...)
		for _, r := range both {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%-20s seed %d: %d of %d operations FAILED\n", wl.Name, r.Seed, r.Failed, r.Attempted)
				ok = false
			}
		}
		for _, m := range man.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := ""
			switch {
			case worse > m.Bound:
				verdict, ok = "  BREACH", false
			case worse < -m.Bound:
				verdict, ok = "  DIFFERS (B better)", false
			}
			fmt.Fprintf(w, "%-20s %-22s %12.6g %12.6g %+7.1f%% %6.0f%%%s\n", wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			bySeed := make(map[int64]map[float64]bool)
			for _, r := range both {
				if v, found := r.PerLayer[d.name]; found {
					if bySeed[r.Seed] == nil {
						bySeed[r.Seed] = make(map[float64]bool)
					}
					bySeed[r.Seed][v.Value] = true
				}
			}
			seeds := make([]int64, 0, len(bySeed))
			for s := range bySeed {
				seeds = append(seeds, s)
			}
			sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
			for _, s := range seeds {
				if len(bySeed[s]) > 1 {
					fmt.Fprintf(w, "%-20s %-22s seed %d: DIFFERS between runs\n", wl.Name, d.name, s)
					ok = false
				}
			}
		}
	}
	return ok, nil
}
