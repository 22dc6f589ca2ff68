package core

import (
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestAnalyzeWithVerify runs the full pipeline with the debug invariant
// checks enabled: postorder invariance (Theorems 1–3) before the
// relabeling and DAG + least-dependence checks (Theorem 4) on the task
// graph. Analysis must pass them on every configuration.
func TestAnalyzeWithVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	matrices := []struct {
		name string
		a    *sparse.CSC
	}{
		{"random-60", randomSystem(60, 0.08, rng)},
		{matgen.SmallSuite()[0].Name, matgen.SmallSuite()[0].Gen()},
	}
	for _, m := range matrices {
		for _, post := range []bool{true, false} {
			opts := DefaultOptions()
			opts.Verify = true
			opts.Postorder = post
			if _, err := Analyze(m.a, opts); err != nil {
				t.Errorf("%s postorder=%v: %v", m.name, post, err)
			}
		}
	}
}
