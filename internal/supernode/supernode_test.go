package supernode

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/etree"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

func randomZeroFreeDiag(n int, density float64, rng *rand.Rand) *sparse.CSC {
	t := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		t.Add(i, i, 1+rng.Float64())
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				t.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return t.ToCSC()
}

func mustFactor(t *testing.T, a *sparse.CSC) *symbolic.Result {
	t.Helper()
	r, err := symbolic.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTrivialPartition(t *testing.T) {
	p := Trivial(5)
	if p.NumBlocks() != 5 {
		t.Fatalf("NumBlocks = %d", p.NumBlocks())
	}
	for k := 0; k < 5; k++ {
		if p.Size(k) != 1 || p.ColToBlock[k] != k {
			t.Fatal("trivial partition malformed")
		}
	}
	if p.MaxSize() != 1 || p.AvgSize() != 1 {
		t.Fatal("trivial stats wrong")
	}
}

func TestStrictPartitionDense(t *testing.T) {
	// A dense matrix is one single supernode.
	n := 6
	d := make([]float64, n*n)
	for i := range d {
		d[i] = 1
	}
	sym := mustFactor(t, sparse.FromDense(d, n, n, 0))
	p := StrictPartition(sym)
	if p.NumBlocks() != 1 {
		t.Fatalf("dense matrix gives %d supernodes, want 1", p.NumBlocks())
	}
}

func TestStrictPartitionDiagonal(t *testing.T) {
	// A diagonal matrix: no column shares structure with the next in the
	// supernode sense (L col j = {j}, next col has {j+1}: tails equal —
	// but the L condition needs j+1 ∈ struct(L col j), which fails).
	tr := sparse.NewTriplet(4, 4)
	for i := 0; i < 4; i++ {
		tr.Add(i, i, 1)
	}
	sym := mustFactor(t, tr.ToCSC())
	p := StrictPartition(sym)
	if p.NumBlocks() != 4 {
		t.Fatalf("diagonal matrix gives %d supernodes, want 4", p.NumBlocks())
	}
}

// Verify the supernode invariant on the result: within a block, L
// columns have identical structure below the block and a dense diagonal
// block; U rows have identical structure right of the block.
func checkPartitionInvariant(t *testing.T, sym *symbolic.Result, p *Partition) {
	t.Helper()
	for k := 0; k < p.NumBlocks(); k++ {
		lo, hi := p.Range(k)
		for c := lo + 1; c < hi; c++ {
			lPrev, lCur := sym.L.Col(c-1), sym.L.Col(c)
			if len(lPrev) != len(lCur)+1 {
				t.Fatalf("block %d: L col %d and %d lengths %d,%d", k, c-1, c, len(lPrev), len(lCur))
			}
			for i := range lCur {
				if lPrev[i+1] != lCur[i] {
					t.Fatalf("block %d: L cols %d,%d structure mismatch", k, c-1, c)
				}
			}
			uPrev, uCur := sym.URows.Col(c-1), sym.URows.Col(c)
			if len(uPrev) != len(uCur)+1 {
				t.Fatalf("block %d: U rows %d,%d lengths", k, c-1, c)
			}
			for i := range uCur {
				if uPrev[i+1] != uCur[i] {
					t.Fatalf("block %d: U rows %d,%d structure mismatch", k, c-1, c)
				}
			}
		}
	}
}

func TestStrictPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(30)
		sym := mustFactor(t, randomZeroFreeDiag(n, 0.15, rng))
		checkPartitionInvariant(t, sym, StrictPartition(sym))
	}
}

func TestStrictPartitionMaximal(t *testing.T) {
	// No two adjacent strict blocks could be merged while preserving the
	// invariant: the boundary columns must violate one of the conditions.
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(25)
		sym := mustFactor(t, randomZeroFreeDiag(n, 0.2, rng))
		p := StrictPartition(sym)
		for k := 1; k < p.NumBlocks(); k++ {
			c := p.BlockStart[k]
			lPrev, lCur := sym.L.Col(c-1), sym.L.Col(c)
			uPrev, uCur := sym.URows.Col(c-1), sym.URows.Col(c)
			if equalTail(lPrev, lCur) && equalTail(uPrev, uCur) {
				t.Fatalf("trial %d: blocks %d,%d could have been merged at col %d", trial, k-1, k, c)
			}
		}
	}
}

func TestPostorderingEnlargesSupernodes(t *testing.T) {
	// The paper's Table 3 effect: on structured matrices, postordering
	// the LU eforest must not increase the number of supernodes, and
	// usually decreases it. Use a matrix whose natural order scatters
	// siblings: a grid-like operator permuted randomly is too noisy to
	// guarantee a strict decrease, so require only SNPO ≤ SN across a
	// batch and a strict decrease in aggregate.
	rng := rand.New(rand.NewSource(73))
	totalSN, totalSNPO := 0, 0
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(30)
		a := randomZeroFreeDiag(n, 0.06, rng)
		sym := mustFactor(t, a)
		sn := StrictPartition(sym).NumBlocks()
		po := etree.PostorderSymbolic(sym, etree.LUForest(sym))
		snpo := StrictPartition(po.Sym).NumBlocks()
		totalSN += sn
		totalSNPO += snpo
	}
	if totalSNPO > totalSN {
		t.Fatalf("postordering increased supernode count in aggregate: %d → %d", totalSN, totalSNPO)
	}
}

// checkWellFormed verifies the tiling invariant every partition must
// satisfy regardless of policy: BlockStart covers [0, n) with strictly
// increasing boundaries and ColToBlock is consistent.
func checkWellFormed(t *testing.T, p *Partition, n int) {
	t.Helper()
	if p.BlockStart[0] != 0 || p.BlockStart[p.NumBlocks()] != n {
		t.Fatalf("partition does not tile [0, %d): starts %v", n, p.BlockStart)
	}
	for k := 0; k < p.NumBlocks(); k++ {
		lo, hi := p.Range(k)
		if hi <= lo {
			t.Fatalf("block %d empty or inverted: [%d, %d)", k, lo, hi)
		}
		for c := lo; c < hi; c++ {
			if p.ColToBlock[c] != k {
				t.Fatalf("ColToBlock[%d] = %d, want %d", c, p.ColToBlock[c], k)
			}
		}
	}
}

func TestAmalgamateSplitRespectsMaxSize(t *testing.T) {
	// Merging is fill-ratio-driven with no width cap, so a permissive
	// MaxFill can grow blocks past MaxSize; Split restores the bound.
	rng := rand.New(rand.NewSource(74))
	sym := mustFactor(t, randomZeroFreeDiag(60, 0.05, rng))
	p := StrictPartition(sym)
	for _, maxSize := range []int{1, 2, 4, 8} {
		am := Amalgamate(p, sym, AmalgamationOptions{MaxSize: maxSize, MaxFill: 1})
		sp := Split(am, maxSize)
		if sp.MaxSize() > maxSize {
			t.Fatalf("split partition exceeded MaxSize %d: %d", maxSize, sp.MaxSize())
		}
		checkWellFormed(t, am, 60)
		checkWellFormed(t, sp, 60)
	}
}

func TestEmptyPartitionStats(t *testing.T) {
	// Zero-value and zero-column partitions must not panic and report
	// zero stats.
	for _, p := range []*Partition{{}, Trivial(0)} {
		if got := p.NumBlocks(); got != 0 {
			t.Fatalf("NumBlocks = %d, want 0", got)
		}
		if got := p.MaxSize(); got != 0 {
			t.Fatalf("MaxSize = %d, want 0", got)
		}
		if got := p.AvgSize(); got != 0 {
			t.Fatalf("AvgSize = %g, want 0", got)
		}
	}
}

func TestAmalgamateWidthOneChain(t *testing.T) {
	// A diagonal matrix is the extreme width-1 chain: every strict block
	// has width 1 and any merge introduces 50% panel fill. The default
	// MaxFill=0.25 must keep the chain intact; MaxFill=0.5 may merge but
	// must stay well-formed.
	n := 12
	tr := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
	}
	sym := mustFactor(t, tr.ToCSC())
	p := StrictPartition(sym)
	if p.MaxSize() != 1 {
		t.Fatalf("diagonal strict partition MaxSize = %d, want 1", p.MaxSize())
	}
	am := Amalgamate(p, sym, AmalgamationOptions{MaxSize: 32, MaxFill: 0.25})
	if am.NumBlocks() != n {
		t.Fatalf("MaxFill=0.25 merged diagonal blocks: %d blocks, want %d", am.NumBlocks(), n)
	}
	checkWellFormed(t, am, n)
	loose := Amalgamate(p, sym, AmalgamationOptions{MaxSize: 32, MaxFill: 0.75})
	checkWellFormed(t, loose, n)
	checkWellFormed(t, Split(loose, 4), n)
}

func TestAmalgamateDensePreservesInvariant(t *testing.T) {
	// A fully dense pattern is a single strict supernode; Amalgamate must
	// leave it alone and the strict structural invariant must keep
	// holding. Splitting a dense block also preserves it, because every
	// consecutive column range of a dense matrix shares trailing
	// structure.
	n := 9
	d := make([]float64, n*n)
	for i := range d {
		d[i] = 1
	}
	sym := mustFactor(t, sparse.FromDense(d, n, n, 0))
	p := StrictPartition(sym)
	am := Amalgamate(p, sym, AmalgamationOptions{MaxSize: 4, MaxFill: 0.25})
	if am.NumBlocks() != 1 {
		t.Fatalf("dense pattern amalgamated into %d blocks, want 1", am.NumBlocks())
	}
	checkWellFormed(t, am, n)
	checkPartitionInvariant(t, sym, am)
	sp := Split(am, 4)
	if sp.MaxSize() > 4 {
		t.Fatalf("Split left a block of width %d > 4", sp.MaxSize())
	}
	checkWellFormed(t, sp, n)
	checkPartitionInvariant(t, sym, sp)
}

func TestSplitBalancesWidths(t *testing.T) {
	// Split produces near-equal panels: widths differ by at most one
	// within what used to be a single block.
	p := fromStarts(20, []int{0, 20})
	sp := Split(p, 6)
	checkWellFormed(t, sp, 20)
	if sp.NumBlocks() != 4 {
		t.Fatalf("Split(20, 6) gave %d blocks, want 4", sp.NumBlocks())
	}
	min, max := 20, 0
	for k := 0; k < sp.NumBlocks(); k++ {
		s := sp.Size(k)
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced split widths: min %d max %d", min, max)
	}
	// Already-compliant partitions come back unchanged.
	if got := Split(sp, 6); got != sp {
		t.Fatal("Split of a compliant partition should be a no-op")
	}
}

func TestAmalgamateZeroFillKeepsExactZeros(t *testing.T) {
	// With MaxFill = 0, merges happen only when they add no explicit
	// zeros, so the explicit-zero count of the panel view must not grow.
	rng := rand.New(rand.NewSource(75))
	sym := mustFactor(t, randomZeroFreeDiag(40, 0.08, rng))
	p := StrictPartition(sym)
	am := Amalgamate(p, sym, AmalgamationOptions{MaxSize: 16, MaxFill: 0})
	if am.NumBlocks() > p.NumBlocks() {
		t.Fatal("amalgamation increased the block count")
	}
	checkNoPanelZeros := func(part *Partition) bool {
		for k := 0; k < part.NumBlocks(); k++ {
			lo, hi := part.Range(k)
			var lRows, uCols []int
			lNNZ, uNNZ := 0, 0
			for c := lo; c < hi; c++ {
				lRows = sparse.UnionSorted(lRows, sym.L.Col(c))
				uCols = sparse.UnionSorted(uCols, sym.URows.Col(c))
				lNNZ += len(sym.L.Col(c))
				uNNZ += len(sym.URows.Col(c))
			}
			if (hi-lo)*(len(lRows)+len(uCols)) != lNNZ+uNNZ {
				return false
			}
		}
		return true
	}
	if checkNoPanelZeros(p) && !checkNoPanelZeros(am) {
		t.Fatal("MaxFill=0 amalgamation introduced explicit panel zeros")
	}
}

func TestBlockPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	sym := mustFactor(t, randomZeroFreeDiag(30, 0.1, rng))
	p := Amalgamate(StrictPartition(sym), sym, AmalgamationOptions{MaxSize: 6, MaxFill: 0.5})
	bp := BlockPattern(sym, p)
	if bp.NCols != p.NumBlocks() {
		t.Fatalf("block pattern is %d×%d, want %d", bp.NRows, bp.NCols, p.NumBlocks())
	}
	// Diagonal blocks present.
	for k := 0; k < p.NumBlocks(); k++ {
		if !bp.Has(k, k) {
			t.Fatalf("diagonal block %d missing", k)
		}
	}
	// Every scalar entry is covered by a block; every off-diagonal block
	// contains at least one scalar entry.
	hasEntry := make(map[[2]int]bool)
	u := sym.UCols()
	for j := 0; j < sym.N; j++ {
		for _, i := range sym.L.Col(j) {
			bi, bj := p.ColToBlock[i], p.ColToBlock[j]
			if !bp.Has(bi, bj) {
				t.Fatalf("entry (%d,%d) not covered by block pattern", i, j)
			}
			hasEntry[[2]int{bi, bj}] = true
		}
		for _, i := range u.Col(j) {
			bi, bj := p.ColToBlock[i], p.ColToBlock[j]
			if !bp.Has(bi, bj) {
				t.Fatalf("entry (%d,%d) not covered by block pattern", i, j)
			}
			hasEntry[[2]int{bi, bj}] = true
		}
	}
	for bj := 0; bj < bp.NCols; bj++ {
		for _, bi := range bp.Col(bj) {
			if bi != bj && !hasEntry[[2]int{bi, bj}] {
				t.Fatalf("block (%d,%d) has no scalar entry", bi, bj)
			}
		}
	}
}

func TestExplicitZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sym := mustFactor(t, randomZeroFreeDiag(25, 0.12, rng))
	p := StrictPartition(sym)
	bp := BlockPattern(sym, p)
	z := ExplicitZeros(sym, p, bp)
	if z < 0 {
		t.Fatalf("ExplicitZeros = %d < 0", z)
	}
	// Amalgamating aggressively can only increase explicit zeros.
	am := Amalgamate(p, sym, AmalgamationOptions{MaxSize: 25, MaxFill: 1})
	za := ExplicitZeros(sym, am, BlockPattern(sym, am))
	if za < z {
		t.Fatalf("aggressive amalgamation decreased explicit zeros: %d → %d", z, za)
	}
	// The dense area of the block pattern is Ā plus its explicit zeros.
	if got := DenseEntries(symbolic.FromPattern(bp), p); got != z+sym.NNZ() {
		t.Fatalf("DenseEntries = %d, want %d explicit zeros + |Ā| %d", got, z, sym.NNZ())
	}
}

// Property: partitions returned by StrictPartition and Amalgamate are
// always well-formed tilings.
func TestQuickPartitionWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := randomZeroFreeDiag(n, 0.15, rng)
		sym, err := symbolic.Factor(a)
		if err != nil {
			return false
		}
		maxSize := 1 + rng.Intn(10)
		am := Amalgamate(StrictPartition(sym), sym, AmalgamationOptions{MaxSize: maxSize, MaxFill: rng.Float64()})
		for _, p := range []*Partition{
			StrictPartition(sym),
			am,
			Split(am, maxSize),
		} {
			if p.BlockStart[0] != 0 || p.BlockStart[p.NumBlocks()] != n {
				return false
			}
			for k := 0; k < p.NumBlocks(); k++ {
				lo, hi := p.Range(k)
				if hi <= lo {
					return false
				}
				for c := lo; c < hi; c++ {
					if p.ColToBlock[c] != k {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
