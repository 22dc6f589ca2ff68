package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/ordering"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/supernode"
	"repro/internal/taskgraph"
)

// closureStorage returns a copy of s scheduled and laid out on the
// block-level closure instead of the stored structure: the paper's task
// graph with one task per block of the closure, and the storage every
// factorization had before the numeric phase was confined to the blocks
// of Ā. It is the test seam of TestStoredBlocksParity — field
// assignments on a copy, no option selects it. The closure layout
// places s's plan: the rows that can be non-zero are the same global
// rows on any layout.
func closureStorage(t *testing.T, s *Symbolic) *Symbolic {
	t.Helper()
	c := *s
	c.Graph = taskgraph.New(s.BlockSym, s.BlockForest, taskgraph.EForest)
	c.Costs = taskgraph.NewCostModel(c.Graph, s.Stored, s.Part)
	prio, err := c.Graph.BottomLevels(c.Costs.TaskFlops)
	if err != nil {
		t.Fatal(err)
	}
	c.Prio = prio
	c.Stored = s.BlockSym
	c.layout = newLayout(c.Stored, c.Part, planRows(s))
	return &c
}

// planRows returns the plan of s's layout as newLayout takes it.
func planRows(s *Symbolic) *sparse.Pattern {
	p := &sparse.Pattern{NRows: s.N, NCols: len(s.layout), ColPtr: make([]int, len(s.layout)+1)}
	for k := range s.layout {
		for _, g := range s.layout[k].plan {
			p.RowInd = append(p.RowInd, int(g))
		}
		p.ColPtr[k+1] = len(p.RowInd)
	}
	return p
}

// randomValues returns a copy of a with every value redrawn from N(0,1):
// no diagonal dominance is left, so the panels interchange rows.
func randomValues(a *sparse.CSC, rng *rand.Rand) *sparse.CSC {
	out := &sparse.CSC{NRows: a.NRows, NCols: a.NCols, ColPtr: a.ColPtr, RowInd: a.RowInd}
	out.Val = make([]float64, len(a.Val))
	for i := range out.Val {
		out.Val[i] = rng.NormFloat64()
	}
	return out
}

// skips counts what a finished factorization on the stored structure
// left out of the closure's work: tasks of its graph whose block is not
// stored (none, on the stored-block graph), interchanges with a row that
// the destination column does not store, and sub-diagonal blocks of a
// panel whose target block is not stored.
type skips struct{ tasks, swaps, targets, exchanged int }

// noOps counts the update tasks of g whose block (K,J) s does not store:
// the tasks of the closure graph that return at once.
func noOps(g *taskgraph.Graph, s *Symbolic) int {
	n := 0
	for _, task := range g.Tasks {
		if task.Kind == taskgraph.Update && !s.Stored.URows.Has(task.J, task.K) {
			n++
		}
	}
	return n
}

func countSkips(f *Factorization) (n skips) {
	stored := f.S.Stored
	for _, task := range f.S.Graph.Tasks {
		if task.Kind != taskgraph.Update {
			continue
		}
		colJ := &f.cols[task.J]
		if !stored.URows.Has(task.J, task.K) {
			n.tasks++
			continue
		}
		base := f.S.Part.BlockStart[task.K]
		for c, g := range f.ipiv[task.K] {
			if g == base+c {
				continue
			}
			n.exchanged++
			if _, ok := colJ.stackedRow(f.S.Part, g); !ok {
				n.swaps++
			}
		}
		for _, i := range stored.L.Col(task.K)[1:] {
			if i <= task.J && !stored.URows.Has(task.J, i) || i > task.J && !stored.L.Has(i, task.J) {
				n.targets++
			}
		}
	}
	return n
}

// sameFactors requires the factorization on the stored structure and the
// one on the closure to agree bit for bit: the pivot rows (global rows,
// the same on both layouts), every entry of every stored block and of
// the planned rows (the same plan on both), and the singularity and
// perturbation records. Whatever else the closure holds must still be
// zero (−0 where a zero multiplier met a negative pivot).
func sameFactors(t *testing.T, ctx string, fs, fc *Factorization) {
	t.Helper()
	for k := range fs.cols {
		cs, cc := &fs.cols[k], &fc.cols[k]
		for c := range fs.ipiv[k] {
			if gs, gc := fs.ipiv[k][c], fc.ipiv[k][c]; gs != gc {
				t.Fatalf("%s: panel %d column %d pivots on row %d, closure storage on row %d", ctx, k, c, gs, gc)
			}
		}
		w := cs.width
		same := func(what string, want, got []float64) {
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: %s entry %d = %x on the stored structure, %x on the closure",
						ctx, what, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
				}
			}
		}
		ts := 0
		for tc, br := range cc.blockRows {
			sz := fc.S.Part.Size(br) * w
			got := cc.data[cc.offsets[tc]*w:][:sz]
			if ts < len(cs.blockRows) && cs.blockRows[ts] == br {
				same(fmt.Sprintf("block (%d,%d)", br, k), cs.data[cs.offsets[ts]*w:][:sz], got)
				ts++
				continue
			}
			for i, v := range got {
				if v != 0 {
					t.Fatalf("%s: closure-only block (%d,%d) entry %d is %v, want ±0", ctx, br, k, i, v)
				}
			}
		}
		if ts != len(cs.blockRows) {
			t.Fatalf("%s: column %d stores a block the closure lacks", ctx, k)
		}
		same(fmt.Sprintf("column %d's planned rows", k), cs.data[(cs.panelOffset()+w)*w:], cc.data[(cc.panelOffset()+w)*w:])
	}
	if fs.Singular() != fc.Singular() || fs.SingularColumn() != fc.SingularColumn() {
		t.Fatalf("%s: singular %v at column %d, closure storage %v at %d",
			ctx, fs.Singular(), fs.SingularColumn(), fc.Singular(), fc.SingularColumn())
	}
	if !reflect.DeepEqual(fs.PerturbedColumns(), fc.PerturbedColumns()) {
		t.Fatalf("%s: perturbed columns %v, closure storage %v", ctx, fs.PerturbedColumns(), fc.PerturbedColumns())
	}
}

// sameSolves requires Solve, SolveTranspose and SolveMany of the two
// factorizations to agree bit for bit.
func sameSolves(t *testing.T, ctx string, fs, fc *Factorization, rng *rand.Rand) {
	t.Helper()
	bs := make([][]float64, 3)
	for r := range bs {
		bs[r] = make([]float64, fs.S.N)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	xs, errS := fs.Solve(bs[0])
	xc, errC := fc.Solve(bs[0])
	if errS != nil || errC != nil {
		t.Fatalf("%s: Solve: %v / %v", ctx, errS, errC)
	}
	diffBits(t, ctx+" Solve", xs, xc)
	xs, errS = fs.SolveTranspose(bs[0])
	xc, errC = fc.SolveTranspose(bs[0])
	if errS != nil || errC != nil {
		t.Fatalf("%s: SolveTranspose: %v / %v", ctx, errS, errC)
	}
	diffBits(t, ctx+" SolveTranspose", xs, xc)
	ms, errS := fs.SolveMany(bs)
	mc, errC := fc.SolveMany(bs)
	if errS != nil || errC != nil {
		t.Fatalf("%s: SolveMany: %v / %v", ctx, errS, errC)
	}
	for r := range ms {
		diffBits(t, fmt.Sprintf("%s SolveMany[%d]", ctx, r), ms[r], mc[r])
	}
}

// TestStoredBlocksParity pins that confining the task graph, storage and
// updates to the blocks that hold an entry of Ā changed no bit. Every
// matrix is factored on the stored graph and structure at P = 1, 2, 4, 8
// and once on the block-level closure — the graph and storage the
// numeric phase used to run on, reached through closureStorage — under
// each rung of the recovery ladder, on values that make the panels
// interchange rows, on a near-singular operator, and on NaN-poisoned
// values, where both must fail alike.
func TestStoredBlocksParity(t *testing.T) {
	type input struct {
		name string
		a    *sparse.CSC
		nan  bool // values hold NaNs: every factorization must fail with ErrNonFinite
		// loose analyses with a looser amalgamation bound than the default:
		// wide zero-padded blocks are where an interchange or a Schur
		// update meets a block that is not stored.
		loose bool
	}
	rng := rand.New(rand.NewSource(1901))
	var inputs []input
	for _, spec := range matgen.SmallSuite() {
		inputs = append(inputs, input{name: spec.Name, a: randomValues(spec.Gen(), rng)})
	}
	inputs = append(inputs,
		input{name: "random-120", a: randomValues(randomSystem(120, 0.05, rng), rng)},
		input{name: "random-200", a: randomValues(randomSystem(200, 0.02, rng), rng), loose: true},
		input{name: "offdiag-150", a: randomValues(offDiagonalSystem(150, rng), rng), loose: true},
		input{name: "lnsp-s-loose", a: randomValues(matgen.SmallSuite()[2].Gen(), rng), loose: true},
	)
	ns, _, _ := matgen.NearSingular(8, 10, 21)
	inputs = append(inputs, input{name: "near-singular", a: ns})
	poisoned := randomValues(matgen.SmallSuite()[2].Gen(), rng)
	for _, k := range []int{3, len(poisoned.Val) / 2, len(poisoned.Val) - 5} {
		poisoned.Val[k] = math.NaN()
	}
	inputs = append(inputs, input{name: "nan-poisoned", a: poisoned, nan: true})

	rungs := []struct {
		name string
		no   NumericOptions
	}{
		{"fail", NumericOptions{PivotPolicy: PivotFail}},
		{"perturb", NumericOptions{PivotPolicy: PivotPerturb}},
		{"equilibrate", NumericOptions{PivotPolicy: PivotPerturb, Equilibrate: true}},
	}
	var total skips
	closureNoOps := 0
	for _, in := range inputs {
		opts := DefaultOptions()
		if in.loose {
			opts.Amalgamation.MaxFill = 0.75
		}
		s, err := Analyze(in.a, opts)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		closure := closureStorage(t, s)
		closureNoOps += noOps(closure.Graph, s)
		for _, rung := range rungs {
			no := rung.no
			no.Workers = 1
			fc, errC := FactorizeWithOpts(closure, in.a, &no)
			for _, p := range []int{1, 2, 4, 8} {
				ctx := fmt.Sprintf("%s %s P=%d", in.name, rung.name, p)
				no.Workers = p
				fs, errS := FactorizeWithOpts(s, in.a, &no)
				if in.nan {
					if !errors.Is(errS, ErrNonFinite) || !errors.Is(errC, ErrNonFinite) {
						t.Fatalf("%s: errors %v / %v, want ErrNonFinite from both", ctx, errS, errC)
					}
					continue
				}
				if errS != nil || errC != nil {
					t.Fatalf("%s: %v / %v", ctx, errS, errC)
				}
				sameFactors(t, ctx, fs, fc)
				if !fs.Singular() {
					sameSolves(t, ctx, fs, fc, rng)
				}
				if p == 1 {
					entries, blocks := 0, 0
					for k := range fs.cols {
						entries += len(fs.cols[k].data)
						blocks += len(fs.cols[k].blockRows)
					}
					if entries != s.SlabEntries() || blocks != s.Stored.URows.NNZ() {
						t.Fatalf("%s: %d U and diagonal blocks / %d entries allocated, want %d / %d",
							ctx, blocks, entries, s.Stored.URows.NNZ(), s.SlabEntries())
					}
					n := countSkips(fs)
					total.tasks += n.tasks
					total.swaps += n.swaps
					total.targets += n.targets
					total.exchanged += n.exchanged
				}
			}
		}
	}
	t.Logf("skipped: %d no-op tasks of the closure graph, %d of %d interchanges, %d target blocks",
		closureNoOps, total.swaps, total.exchanged, total.targets)
	if total.tasks != 0 {
		t.Fatalf("the stored-block graph holds %d tasks whose block is not stored", total.tasks)
	}
	if closureNoOps == 0 || total.swaps == 0 || total.targets == 0 {
		t.Fatalf("the inputs never reached one of the three skips: %d closure no-ops, %+v", closureNoOps, total)
	}
}

// missingBlockCase is a 6×6 pattern whose partition {0,1} {2,3} {4,5}
// stores blocks (2,0) and (0,1) but not (2,1): row 4 is a candidate of
// step 0 and row 1 reaches column 2, but no row of block 2 reaches
// block column 1. a(4,0) dominates column 0, so panel 0 exchanges row 0
// with row 4, whose block is missing from block column 1.
func missingBlockCase(t *testing.T) (*Symbolic, *sparse.CSC) {
	t.Helper()
	tr := sparse.NewTriplet(6, 6)
	for i := 0; i < 6; i++ {
		tr.Add(i, i, 2)
	}
	tr.Add(4, 0, 5)
	tr.Add(1, 2, 1)
	tr.Add(3, 2, 1)
	tr.Add(2, 3, 1)
	tr.Add(5, 4, 1)
	tr.Add(4, 5, 1)
	a := tr.ToCSC()
	s, err := Analyze(a, &Options{
		Ordering:     ordering.Natural,
		Verify:       true,
		Amalgamation: supernode.AmalgamationOptions{MaxSize: 32, MaxFill: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Part.BlockStart, []int{0, 2, 4, 6}) || !reflect.DeepEqual(s.SolvePerm, sparse.Perm{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("the case needs blocks {0,1} {2,3} {4,5} in natural order, got starts %v perm %v", s.Part.BlockStart, s.SolvePerm)
	}
	if !s.Stored.L.Has(2, 0) || !s.Stored.URows.Has(1, 0) || s.Stored.L.Has(2, 1) || !s.BlockSym.L.Has(2, 1) {
		t.Fatal("the case needs blocks (2,0), (0,1) stored and (2,1) only in the closure")
	}
	return s, a
}

// TestStoredBlocksParityMissingPartner drives the interchange whose
// second row has no block in the destination column: with the partner
// row zero, as the structure guarantees, the factorization completes
// and solves; with the partner row made non-zero the task fails.
func TestStoredBlocksParityMissingPartner(t *testing.T) {
	s, a := missingBlockCase(t)
	f, err := FactorizeWith(s, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ipiv[0][0]; got != 4 {
		t.Fatalf("panel 0 pivots column 0 on row %d, want row 4", got)
	}
	if n := countSkips(f); n.swaps != 1 {
		t.Fatalf("skipped %d interchanges, want 1", n.swaps)
	}
	b := []float64{1, -2, 3, -4, 5, -6}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	want := denseSolve(t, a, b)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-14 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}

	f, err = newFactorization(s, a, resolveNumOpts(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	c := &f.cols[1]
	c.data[c.offsets[0]*c.width] = 1 // entry (0,2): outside Ā, in row 0 of stored block (0,1)
	err = sched.Run(s.Graph, sched.RunOptions{Procs: 1, Prio: s.Prio}, f.runTask)
	var te *sched.TaskError
	if !errors.As(err, &te) || te.Task != "U(0,1)" || !strings.Contains(err.Error(), "missing in column 1") {
		t.Fatalf("err = %v, want the failure of U(0,1) on the missing block", err)
	}
}
