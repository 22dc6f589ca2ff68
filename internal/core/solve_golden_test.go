package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/matgen"
)

const solveGoldenFile = "testdata/solve_golden.json"

// factorHash is the sha256 of every numeric value a Factorization
// keeps: the block-column data in storage order and the pivot rows.
func factorHash(f *Factorization) string {
	g := &goldenHasher{h: sha256.New()}
	for _, c := range f.cols {
		g.floats(c.data)
	}
	for _, p := range f.ipiv {
		g.ints(p)
	}
	return hex.EncodeToString(g.h.Sum(nil))
}

// TestSolveGoldenIdentity requires the numeric factors (P = 1) and the
// SolveMany answers (nrhs ∈ {1, 3, 16}, SolveWorkers ∈ {1, 2}) on every
// small-suite matrix to hash to the values recorded in
// testdata/solve_golden.json, written by `go test ./internal/core -run
// SolveGoldenIdentity -update-golden` on the tree before the level-3
// kernels gained their one-column paths. A kernel change that moves a
// single bit of a factor or a solution fails here; a PR that means to
// change the arithmetic regenerates the table and says so.
func TestSolveGoldenIdentity(t *testing.T) {
	got := map[string]string{}
	for _, sp := range matgen.SmallSuite() {
		a := sp.Gen()
		s, err := Analyze(a, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: analyze: %v", sp.Name, err)
		}
		f, err := FactorizeWithOpts(s, a, &NumericOptions{Workers: 1, SolveWorkers: 1})
		if err != nil {
			t.Fatalf("%s: factorize: %v", sp.Name, err)
		}
		got[sp.Name+"/factor"] = factorHash(f)
		rng := rand.New(rand.NewSource(27))
		for _, nrhs := range []int{1, 3, 16} {
			bs := make([][]float64, nrhs)
			for r := range bs {
				bs[r] = make([]float64, a.NCols)
				for i := range bs[r] {
					bs[r][i] = rng.NormFloat64()
				}
			}
			key := fmt.Sprintf("%s/nrhs=%d", sp.Name, nrhs)
			for _, p := range []int{1, 2} {
				xs, err := f.SolveManyWith(bs, &NumericOptions{SolveWorkers: p})
				if err != nil {
					t.Fatalf("%s P=%d: %v", key, p, err)
				}
				g := &goldenHasher{h: sha256.New()}
				for _, x := range xs {
					g.floats(x)
				}
				h := hex.EncodeToString(g.h.Sum(nil))
				if prev, ok := got[key]; ok && prev != h {
					t.Errorf("%s: SolveWorkers %d hashes %s, SolveWorkers 1 %s", key, p, h, prev)
				}
				got[key] = h
			}
		}
	}
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(solveGoldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(solveGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", solveGoldenFile, err)
	}
	for key, h := range got {
		if want[key] == "" {
			t.Errorf("%s: no golden entry", key)
		} else if want[key] != h {
			t.Errorf("%s: hash %s, golden %s", key, h, want[key])
		}
	}
}
