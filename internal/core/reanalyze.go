package core

import "repro/internal/sparse"

// ReuseLevel reports how much of a previous analysis Reanalyze reused.
type ReuseLevel int

const (
	// ReuseNone means the pattern (or the analysis options) differed and
	// a full Analyze ran.
	ReuseNone ReuseLevel = iota
	// ReuseFull means the pattern and analysis options were identical
	// and the previous Symbolic was returned as-is, skipping every
	// structural stage.
	ReuseFull
)

// String names the level for logs and metrics.
func (l ReuseLevel) String() string {
	if l == ReuseFull {
		return "full"
	}
	return "none"
}

// Reanalyze produces the analysis of a given a previous Symbolic. An
// identical pattern (same PatternHash, which bakes in the
// analysis-shaping options) returns prev itself and no structural stage
// runs; any other pattern gets a full Analyze with prev's options, so
// the result is always the one a fresh Analyze of a would produce.
func Reanalyze(prev *Symbolic, a *sparse.CSC) (*Symbolic, ReuseLevel, error) {
	if prev == nil {
		s, err := Analyze(a, nil)
		return s, ReuseNone, err
	}
	o := prev.Opts
	if a.NRows == a.NCols && a.NCols == prev.N && PatternHash(a, &o) == prev.PatternHash {
		return prev, ReuseFull, nil
	}
	s, err := Analyze(a, &o)
	return s, ReuseNone, err
}
