package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/luerr"
	"repro/internal/matgen"
	"repro/internal/ordering"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// randomSystem builds a random sparse diagonally-dominant matrix (well
// conditioned, structurally nonsingular) with the given density.
func randomSystem(n int, density float64, rng *rand.Rand) *sparse.CSC {
	t := sparse.NewTriplet(n, n)
	rowAbs := make([]float64, n)
	type entry struct {
		i, j int
		v    float64
	}
	var entries []entry
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				v := rng.NormFloat64()
				entries = append(entries, entry{i, j, v})
				rowAbs[i] += math.Abs(v)
			}
		}
	}
	for _, e := range entries {
		t.Add(e.i, e.j, e.v)
	}
	for i := 0; i < n; i++ {
		t.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return t.ToCSC()
}

// offDiagonalSystem has structural zeros on part of the diagonal so the
// transversal has real work to do; it remains well conditioned after row
// matching.
func offDiagonalSystem(n int, rng *rand.Rand) *sparse.CSC {
	p := sparse.RandomPerm(n, rng)
	t := sparse.NewTriplet(n, n)
	for j := 0; j < n; j++ {
		t.Add(p[j], j, 5+rng.Float64()) // planted transversal
		for extra := 0; extra < 2; extra++ {
			i := rng.Intn(n)
			t.Add(i, j, 0.25*rng.NormFloat64())
		}
	}
	return t.ToCSC()
}

func denseSolve(t *testing.T, a *sparse.CSC, b []float64) []float64 {
	t.Helper()
	n := a.NCols
	d := a.ToDense()
	ipiv := make([]int, n)
	if err := blas.Dgetrf(n, n, d, n, ipiv); err != nil {
		t.Fatalf("dense reference factorization failed: %v", err)
	}
	x := append([]float64(nil), b...)
	blas.Dgetrs(n, d, n, ipiv, x)
	return x
}

func optionMatrix() []*Options {
	var out []*Options
	for _, post := range []bool{true, false} {
		for _, tg := range []taskgraph.Variant{taskgraph.SStar, taskgraph.EForest} {
			for _, w := range []int{1, 3} {
				out = append(out, &Options{
					Ordering:       ordering.MinDegreeATA,
					Postorder:      post,
					TaskGraph:      tg,
					Amalgamation:   supernode.AmalgamationOptions{MaxSize: 8, MaxFill: 0.3},
					NumericOptions: NumericOptions{Workers: w},
				})
			}
		}
	}
	return out
}

func TestFactorizeSolveAllOptionCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	a := randomSystem(80, 0.06, rng)
	b := make([]float64, 80)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := denseSolve(t, a, b)
	for oi, opts := range optionMatrix() {
		f, err := Factorize(a, opts)
		if err != nil {
			t.Fatalf("opts %d: %v", oi, err)
		}
		if f.Singular() {
			t.Fatalf("opts %d: spuriously singular", oi)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("opts %d: %v", oi, err)
		}
		if r := Residual(a, x, b); r > 1e-10 {
			t.Fatalf("opts %d: residual %g", oi, r)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				t.Fatalf("opts %d: x[%d] = %g, dense reference %g", oi, i, x[i], want[i])
			}
		}
	}
}

func TestFactorizeManyRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(60)
		a := randomSystem(n, 0.05+rng.Float64()*0.15, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		opts := DefaultOptions()
		opts.Workers = 1 + rng.Intn(4)
		f, err := Factorize(a, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := Residual(a, x, b); r > 1e-9 {
			t.Fatalf("trial %d (n=%d): residual %g", trial, n, r)
		}
	}
}

func TestFactorizeNeedsTransversal(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(30)
		a := offDiagonalSystem(n, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		f, err := Factorize(a, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := Residual(a, x, b); r > 1e-8 {
			t.Fatalf("trial %d: residual %g", trial, r)
		}
	}
}

func TestParallelBitwiseDeterminism(t *testing.T) {
	// Updates from independent subtrees touch disjoint rows, so the
	// parallel factorization must be bitwise identical to the serial one.
	rng := rand.New(rand.NewSource(104))
	a := randomSystem(70, 0.07, rng)
	factor := func(workers int) *Factorization {
		opts := DefaultOptions()
		opts.Workers = workers
		f, err := Factorize(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1 := factor(1)
	for _, w := range []int{2, 4, 8} {
		fw := factor(w)
		for k := range f1.cols {
			d1, dw := f1.cols[k].data, fw.cols[k].data
			for i := range d1 {
				if d1[i] != dw[i] {
					t.Fatalf("workers=%d: block column %d differs at %d: %v vs %v", w, k, i, d1[i], dw[i])
				}
			}
			for c := range f1.ipiv[k] {
				if f1.ipiv[k][c] != fw.ipiv[k][c] {
					t.Fatalf("workers=%d: pivots of column %d differ", w, k)
				}
			}
		}
	}
}

// diffBits reports the first elementwise bit difference between two
// vectors (NaNs must match bit for bit too).
func diffBits(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %x (%g), want %x (%g)",
				ctx, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// checkSolvesAcrossWorkers factors a under opts at Workers = 1, 2, 4, 8
// and requires Solve, SolveTranspose and SolveMany of every parallel
// factorization to return the serial factorization's answers bit for
// bit.
func checkSolvesAcrossWorkers(t *testing.T, a *sparse.CSC, opts *Options, rng *rand.Rand) {
	t.Helper()
	s, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	bs := make([][]float64, 3)
	for r := range bs {
		bs[r] = make([]float64, a.NCols)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	var want [][]float64
	for _, w := range []int{1, 2, 4, 8} {
		no := opts.NumericOptions
		no.Workers = w
		f, err := FactorizeWithOpts(s, a, &no)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		x, err := f.Solve(bs[0])
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		xt, err := f.SolveTranspose(bs[0])
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		xs, err := f.SolveMany(bs)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		got := append([][]float64{x, xt}, xs...)
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			diffBits(t, fmt.Sprintf("Workers=%d answer %d", w, i), got[i], want[i])
		}
	}
}

// TestSolveBitwiseAcrossWorkers requires the answers of Solve,
// SolveTranspose and SolveMany on the whole small suite not to depend
// on the factorization's worker count.
func TestSolveBitwiseAcrossWorkers(t *testing.T) {
	for _, spec := range matgen.SmallSuite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			checkSolvesAcrossWorkers(t, spec.Gen(), DefaultOptions(), rand.New(rand.NewSource(401)))
		})
	}
}

// TestSolveBitwiseEquilibrated repeats it with row/column scaling in the
// loop.
func TestSolveBitwiseEquilibrated(t *testing.T) {
	opts := DefaultOptions()
	opts.Equilibrate = true
	checkSolvesAcrossWorkers(t, matgen.SmallSuite()[1].Gen(), opts, rand.New(rand.NewSource(402)))
}

// TestSolveBitwiseNearSingularPerturb repeats it on a near-singular
// system under PivotPerturb, where racing Factor tasks record the
// perturbed pivots.
func TestSolveBitwiseNearSingularPerturb(t *testing.T) {
	a, _, _ := matgen.NearSingular(8, 10, 21)
	opts := DefaultOptions()
	opts.PivotPolicy = PivotPerturb
	f, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.PivotPerturbations() == 0 {
		t.Fatal("expected pivot perturbations on the near-singular system")
	}
	checkSolvesAcrossWorkers(t, a, opts, rand.New(rand.NewSource(404)))
}

// TestFullSizeGraphVariantsAgree checks at full scale, on lns3937, that
// the S* and eforest task graphs give bitwise the same solution.
func TestFullSizeGraphVariantsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size integration test")
	}
	a := matgen.Lns3937()
	b := make([]float64, a.NCols)
	for i := range b {
		b[i] = 1
	}
	var xs [][]float64
	for _, tg := range []taskgraph.Variant{taskgraph.SStar, taskgraph.EForest} {
		opts := DefaultOptions()
		opts.TaskGraph = tg
		opts.Workers = 4
		f, err := Factorize(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	diffBits(t, "S* vs eforest", xs[0], xs[1])
}

func TestStructurallySingularRejected(t *testing.T) {
	tr := sparse.NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Add(1, 0, 1)
	tr.Add(2, 2, 1) // column 1 empty
	_, err := Analyze(tr.ToCSC(), nil)
	if err == nil {
		t.Fatal("structurally singular matrix accepted")
	}
	if !errors.Is(err, ErrStructurallySingular) || !errors.Is(err, luerr.ErrSingular) {
		t.Fatalf("err = %v, want ErrStructurallySingular and luerr.ErrSingular", err)
	}
	if want := "core: matrix is structurally singular (2 of 3 columns matched)"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

func TestNumericallySingularFlagged(t *testing.T) {
	// Structurally fine, numerically rank deficient: two equal rows.
	tr := sparse.NewTriplet(3, 3)
	vals := [][3]float64{{1, 2, 3}, {1, 2, 3}, {4, 5, 6}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			tr.Add(i, j, vals[i][j])
		}
	}
	f, err := Factorize(tr.ToCSC(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Singular() {
		t.Fatal("rank-deficient matrix not flagged singular")
	}
	if _, err := f.Solve([]float64{1, 1, 1}); err == nil {
		t.Fatal("Solve on singular factorization should error")
	}
}

func TestNonSquareRejected(t *testing.T) {
	tr := sparse.NewTriplet(2, 3)
	tr.Add(0, 0, 1)
	if _, err := Analyze(tr.ToCSC(), nil); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

func TestSolveRejectsWrongLength(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	a := randomSystem(10, 0.2, rng)
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(make([]float64, 9)); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
}

func TestAnalyzeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	a := randomSystem(60, 0.06, rng)
	s, err := Analyze(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats
	if st.N != 60 || st.NNZA != a.NNZ() {
		t.Fatalf("stats order/nnz wrong: %+v", st)
	}
	if st.FillRatio < 1 {
		t.Fatalf("fill ratio %g < 1", st.FillRatio)
	}
	if st.Supernodes < 1 || st.Supernodes > st.N {
		t.Fatalf("supernodes %d out of range", st.Supernodes)
	}
	// Amalgamation only merges, so without splits the block count can
	// only shrink; load-balance splitting adds SplitBlocks back.
	if st.Supernodes-st.SplitBlocks > st.StrictSN {
		t.Fatalf("amalgamation increased supernodes: %d (of which %d split) > %d",
			st.Supernodes, st.SplitBlocks, st.StrictSN)
	}
	if st.SplitBlocks < 0 {
		t.Fatalf("negative split count: %d", st.SplitBlocks)
	}
	if st.MaxBlockWidth < 1 || st.MaxBlockWidth > st.N || st.AvgBlockWidth <= 0 ||
		float64(st.MaxBlockWidth) < st.AvgBlockWidth {
		t.Fatalf("block width stats wrong: %+v", st)
	}
	if st.ExplicitZeros < 0 || st.ExplicitZeroRatio < 0 || st.ExplicitZeroRatio >= 1 {
		t.Fatalf("explicit-zero stats wrong: %+v", st)
	}
	if st.Blocks != s.BlockSym.N || st.Blocks != s.Part.NumBlocks() {
		t.Fatal("block counts inconsistent")
	}
	// TaskCount and EdgeCount are the paper's graph on the block-level
	// closure; StoredTasks and StoredEdges the graph the numeric phase
	// runs: F(k) per diagonal block of Ū, U(k,j) per stored off-diagonal
	// one.
	closure := taskgraph.New(s.BlockSym, s.BlockForest, s.Opts.TaskGraph)
	if st.TaskCount != closure.NumTasks() || st.EdgeCount != closure.NumEdges {
		t.Fatalf("closure counts %d tasks / %d edges, taskgraph.New %d / %d", st.TaskCount, st.EdgeCount, closure.NumTasks(), closure.NumEdges)
	}
	if st.StoredTasks != s.Graph.NumTasks() || st.StoredEdges != s.Graph.NumEdges || st.StoredTasks != s.Stored.URows.NNZ() {
		t.Fatalf("stored counts %d tasks / %d edges, Graph %d / %d, %d stored U blocks",
			st.StoredTasks, st.StoredEdges, s.Graph.NumTasks(), s.Graph.NumEdges, s.Stored.URows.NNZ())
	}
	if st.StoredTasks >= st.TaskCount {
		t.Fatalf("stored graph has %d tasks, the closure %d: the test matrix stores every block", st.StoredTasks, st.TaskCount)
	}
	if st.TotalFlops <= 0 || st.CriticalPath <= 0 || st.CriticalPath > st.TotalFlops {
		t.Fatalf("flop stats wrong: %+v", st)
	}
	if st.NumTrees < 1 {
		t.Fatal("no trees")
	}
}

func TestAnalyzeReuseAcrossValues(t *testing.T) {
	// Same structure, different values: one analysis, two numeric
	// factorizations.
	rng := rand.New(rand.NewSource(107))
	a := randomSystem(40, 0.08, rng)
	s, err := Analyze(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Scaling all entries by per-entry factors close to 1 keeps the
	// matrix diagonally dominant, hence well conditioned.
	a2 := a.Clone()
	for k := range a2.Val {
		a2.Val[k] *= 1 + 0.1*rng.Float64()
	}
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, m := range []*sparse.CSC{a, a2} {
		f, err := FactorizeWith(s, m)
		if err != nil {
			t.Fatal(err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := Residual(m, x, b); r > 1e-9 {
			t.Fatalf("residual %g", r)
		}
	}
}

func TestPermuteInput(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	a := randomSystem(30, 0.1, rng)
	s, err := Analyze(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	ap := s.PermuteInput(a)
	if !ap.HasZeroFreeDiagonal() {
		t.Fatal("permuted matrix lost its zero-free diagonal")
	}
	// Every entry must map through the permutations.
	for j := 0; j < 30; j++ {
		rows, vals := a.Col(j)
		for k, i := range rows {
			pi := s.SymPerm[s.RowPerm[i]]
			pj := s.SymPerm[j]
			if got := ap.At(pi, pj); got != vals[k] {
				t.Fatalf("entry (%d,%d): permuted value %g, want %g", i, j, got, vals[k])
			}
		}
	}
}

func TestSolvePermuted(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	a := randomSystem(25, 0.12, rng)
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	ap := f.S.PermuteInput(a)
	x := make([]float64, 25)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, 25)
	ap.MulVec(x, b)
	nb := f.S.BlockSym.N
	if err := sweep(context.Background(), nb, false, nil, trace.KindSolveL, func(k int) { f.fwdStep(k, b) }); err != nil {
		t.Fatal(err)
	}
	if err := sweep(context.Background(), nb, true, nil, trace.KindSolveU, func(k int) { f.bwdStep(k, b) }); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
			t.Fatalf("permuted solve wrong at %d: %g vs %g", i, b[i], x[i])
		}
	}
}

// Property: the full pipeline solves random well-conditioned systems to
// tight backward error under random option combinations.
func TestQuickPipeline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		a := randomSystem(n, 0.05+rng.Float64()*0.2, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		opts := &Options{
			Ordering:       ordering.Method(rng.Intn(3)),
			Postorder:      rng.Intn(2) == 0,
			TaskGraph:      taskgraph.Variant(rng.Intn(2)),
			NumericOptions: NumericOptions{Workers: 1 + rng.Intn(4)},
			Amalgamation:   supernode.AmalgamationOptions{MaxSize: 1 + rng.Intn(12), MaxFill: rng.Float64()},
		}
		fac, err := Factorize(a, opts)
		if err != nil {
			return false
		}
		x, err := fac.Solve(b)
		if err != nil {
			return false
		}
		return Residual(a, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
