package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
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
// SolveMany answers (nrhs ∈ {1, 3, 16}) on every small-suite matrix to
// hash to the values recorded in testdata/solve_golden.json, and with
// them the answers of Solve, SolveTranspose, PivotGrowth and LogDet.
// SolveMany sweeps up to vectorMaxRHS right-hand sides as vectors, so
// the nrhs = 1 entries are the hashes of Solve on the same right-hand
// side, and nrhs = 3 and 16 pin the panel sweeps.
// The same matrices with their columns scaled over twenty decades pin
// the factors, a 3-RHS SolveMany and the same four answers under
// Equilibrate and under PivotPerturb. The table is written by `go test
// ./internal/core -run SolveGoldenIdentity -update-golden`. A kernel or
// driver change that moves a single bit of a factor or a solution fails
// here; a PR that means to change the arithmetic regenerates the table
// and says so.
func TestSolveGoldenIdentity(t *testing.T) {
	got := map[string]string{}
	for _, sp := range matgen.SmallSuite() {
		a := sp.Gen()
		s, err := Analyze(a, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: analyze: %v", sp.Name, err)
		}
		f, err := FactorizeWithOpts(s, a, &NumericOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: factorize: %v", sp.Name, err)
		}
		got[sp.Name+"/factor"] = factorHash(f)
		rng := rand.New(rand.NewSource(27))
		for _, nrhs := range []int{1, 3, 16} {
			bs := randomRHS(rng, nrhs, a.NCols)
			key := fmt.Sprintf("%s/nrhs=%d", sp.Name, nrhs)
			xs, err := f.SolveMany(bs)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = floatsHash(xs...)
		}
		pinAnswers(t, got, sp.Name, f, a, rng)

		scaled := columnScaled(a, rand.New(rand.NewSource(47)))
		for _, v := range []struct {
			name string
			opts NumericOptions
		}{
			{"equilibrate", NumericOptions{Workers: 1, Equilibrate: true}},
			{"perturb", NumericOptions{Workers: 1, PivotPolicy: PivotPerturb}},
		} {
			key := sp.Name + "/" + v.name
			f, err := FactorizeWithOpts(s, scaled, &v.opts)
			if err != nil {
				t.Fatalf("%s: factorize: %v", key, err)
			}
			got[key+"/factor"] = factorHash(f)
			xs, err := f.SolveMany(randomRHS(rng, 3, a.NCols))
			if err != nil {
				t.Fatalf("%s/nrhs=3: %v", key, err)
			}
			got[key+"/nrhs=3"] = floatsHash(xs...)
			pinAnswers(t, got, key, f, scaled, rng)
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

// pinAnswers records under key the hashes of f's Solve and
// SolveTranspose on one random right-hand side each, PivotGrowth(a) and
// LogDet.
func pinAnswers(t *testing.T, got map[string]string, key string, f *Factorization, a *sparse.CSC, rng *rand.Rand) {
	t.Helper()
	x, err := f.Solve(randomRHS(rng, 1, a.NCols)[0])
	if err != nil {
		t.Fatalf("%s/solve: %v", key, err)
	}
	got[key+"/solve"] = floatsHash(x)
	xt, err := f.SolveTranspose(randomRHS(rng, 1, a.NCols)[0])
	if err != nil {
		t.Fatalf("%s/solveT: %v", key, err)
	}
	got[key+"/solveT"] = floatsHash(xt)
	got[key+"/growth"] = floatsHash([]float64{f.PivotGrowth(a)})
	sign, logAbs := f.LogDet()
	got[key+"/logdet"] = floatsHash([]float64{sign, logAbs})
}

// randomRHS returns nrhs standard-normal vectors of length n.
func randomRHS(rng *rand.Rand, nrhs, n int) [][]float64 {
	bs := make([][]float64, nrhs)
	for r := range bs {
		bs[r] = make([]float64, n)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	return bs
}

// floatsHash is the sha256 of the bits of the vectors, in order.
func floatsHash(vs ...[]float64) string {
	g := &goldenHasher{h: sha256.New()}
	for _, v := range vs {
		g.floats(v)
	}
	return hex.EncodeToString(g.h.Sum(nil))
}

// columnScaled returns a copy of a with each column multiplied by 10^k,
// k uniform in [−10, 9]: a badly scaled matrix of a's pattern.
func columnScaled(a *sparse.CSC, rng *rand.Rand) *sparse.CSC {
	out := a.Clone()
	for j := 0; j < out.NCols; j++ {
		s := math.Pow(10, float64(rng.Intn(20)-10))
		for k := out.ColPtr[j]; k < out.ColPtr[j+1]; k++ {
			out.Val[k] *= s
		}
	}
	return out
}
