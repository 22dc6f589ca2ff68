package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/supernode"
)

// TestWidthCapProperty is the property test of the panel width
// contract (supernode.MaxWidth): on every small-suite matrix and every
// family of matgen.GenPatterns, under every requested MaxSize, no block
// of the partition and no packed panel is wider than MaxWidth, and Opts
// records the width Split applied. A MaxSize of MaxWidth or more (and
// one ≤ 0, which means MaxWidth) is the MaxSize = 32 analysis: the same
// partition, PatternHash, and golden structure and graph hashes. Some
// input must need the cap (a fill-ratio supernode wider than MaxWidth)
// for the test to mean anything.
func TestWidthCapProperty(t *testing.T) {
	type input struct {
		name string
		a    *sparse.CSC
	}
	var inputs []input
	for _, sp := range matgen.SmallSuite() {
		inputs = append(inputs, input{sp.Name, sp.Gen()})
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, pc := range matgen.GenPatterns(seed) {
			inputs = append(inputs, input{pc.Name, pc.A})
		}
	}
	capped := false
	for _, in := range inputs {
		var ref *Symbolic
		var refStructure, refGraph string
		for _, size := range []int{32, -1, 0, 1, 31, 33, 1 << 20} {
			name := fmt.Sprintf("%s/MaxSize=%d", in.name, size)
			opts := DefaultOptions()
			opts.Amalgamation.MaxSize = size
			s, err := Analyze(in.a, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if w := s.Stats.MaxBlockWidth; w > supernode.MaxWidth {
				t.Fatalf("%s: widest block %d > %d", name, w, supernode.MaxWidth)
			}
			if got, want := s.Opts.Amalgamation.MaxSize, supernode.Width(size); got != want {
				t.Fatalf("%s: Opts records MaxSize %d, Split applied %d", name, got, want)
			}
			start := 0
			for k := range s.layout {
				c := &s.layout[k]
				if c.packEnd > start && c.width > supernode.MaxWidth {
					t.Fatalf("%s: packed panel %d has K = %d > %d", name, k, c.width, supernode.MaxWidth)
				}
				start = c.packEnd
			}
			if supernode.Width(size) != supernode.MaxWidth {
				continue
			}
			structure, graph := structureHash(t, s, in.a), graphHash(s)
			if ref == nil {
				ref, refStructure, refGraph = s, structure, graph
				capped = capped || s.Stats.SplitBlocks > 0
				continue
			}
			switch {
			case !slices.Equal(s.Part.BlockStart, ref.Part.BlockStart):
				t.Fatalf("%s: partition differs from MaxSize=32's", name)
			case s.PatternHash != ref.PatternHash:
				t.Fatalf("%s: PatternHash %s, MaxSize=32 %s", name, s.PatternHash, ref.PatternHash)
			case structure != refStructure:
				t.Fatalf("%s: structure hash differs from MaxSize=32's", name)
			case graph != refGraph:
				t.Fatalf("%s: graph hash differs from MaxSize=32's", name)
			}
		}
	}
	if !capped {
		t.Fatal("no input has a supernode wider than the cap; the property is vacuous")
	}
}
