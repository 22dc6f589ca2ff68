package symbolic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// paperMatrix builds the 7×7 example matrix of the paper's Figure 1(a).
// The exact figure is partially garbled in the source text, so this is a
// structurally similar small unsymmetric matrix with zero-free diagonal
// used across the etree/taskgraph tests.
func paperMatrix() *sparse.CSC {
	// pattern (x = nonzero):
	//   0 1 2 3 4 5 6
	// 0 x . . x . . .
	// 1 . x . . x . .
	// 2 . . x . . x .
	// 3 x . . x . . x
	// 4 . x . . x . x
	// 5 . . x . . x x
	// 6 . . . x x x x
	t := sparse.NewTriplet(7, 7)
	entries := [][2]int{
		{0, 0}, {0, 3},
		{1, 1}, {1, 4},
		{2, 2}, {2, 5},
		{3, 0}, {3, 3}, {3, 6},
		{4, 1}, {4, 4}, {4, 6},
		{5, 2}, {5, 5}, {5, 6},
		{6, 3}, {6, 4}, {6, 5}, {6, 6},
	}
	for k, e := range entries {
		t.Add(e[0], e[1], float64(k+1))
	}
	return t.ToCSC()
}

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

func patternsEqual(a, b *sparse.Pattern) bool {
	if a.NCols != b.NCols || a.NNZ() != b.NNZ() {
		return false
	}
	for j := 0; j < a.NCols; j++ {
		ac, bc := a.Col(j), b.Col(j)
		if len(ac) != len(bc) {
			return false
		}
		for k := range ac {
			if ac[k] != bc[k] {
				return false
			}
		}
	}
	return true
}

func TestFactorRejectsBadInput(t *testing.T) {
	tr := sparse.NewTriplet(2, 3)
	tr.Add(0, 0, 1)
	_, err := Factor(tr.ToCSC())
	if err == nil || err.Error() != "symbolic: matrix must be square, got 2×3" {
		t.Fatalf("non-square matrix: %v", err)
	}
	tr2 := sparse.NewTriplet(2, 2)
	tr2.Add(0, 1, 1)
	tr2.Add(1, 0, 1)
	_, err = Factor(tr2.ToCSC())
	if err == nil || err.Error() != "symbolic: matrix diagonal has structural zeros; apply a maximum transversal first" {
		t.Fatalf("structurally zero diagonal: %v", err)
	}
	// The bare-pattern entry point and the parallel driver check the same
	// preconditions before any engine is seeded.
	if _, err2 := FactorPattern(sparse.PatternOf(tr2.ToCSC())); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("FactorPattern on a structurally zero diagonal: %v", err2)
	}
	if _, err2 := FactorParallel(tr2.ToCSC(), 4, nil); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("FactorParallel on a structurally zero diagonal: %v", err2)
	}
}

func TestFactorDiagonalMatrix(t *testing.T) {
	tr := sparse.NewTriplet(4, 4)
	for i := 0; i < 4; i++ {
		tr.Add(i, i, 2)
	}
	r, err := Factor(tr.ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	if r.NNZ() != 4 {
		t.Fatalf("diagonal matrix NNZ = %d, want 4", r.NNZ())
	}
	if r.L.NNZ() != 4 || r.URows.NNZ() != 4 {
		t.Fatalf("L nnz %d U nnz %d, want 4 4", r.L.NNZ(), r.URows.NNZ())
	}
}

func TestFactorDenseMatrix(t *testing.T) {
	n := 6
	d := make([]float64, n*n)
	for i := range d {
		d[i] = 1
	}
	r, err := Factor(sparse.FromDense(d, n, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.NNZ() != n*n {
		t.Fatalf("dense NNZ = %d, want %d", r.NNZ(), n*n)
	}
}

func TestFactorMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(25)
		a := randomZeroFreeDiag(n, 0.15, rng)
		got, err := Factor(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := factorNaive(a)
		if !patternsEqual(got.L, want.L) {
			t.Fatalf("trial %d (n=%d): L patterns differ", trial, n)
		}
		if !patternsEqual(got.URows, want.URows) {
			t.Fatalf("trial %d (n=%d): U patterns differ", trial, n)
		}
	}
}

func TestFactorPaperMatrix(t *testing.T) {
	a := paperMatrix()
	r, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	want := factorNaive(a)
	if !patternsEqual(r.L, want.L) || !patternsEqual(r.URows, want.URows) {
		t.Fatal("paper matrix symbolic factorization differs from reference")
	}
	// Ā must contain the original structure.
	if !sparse.PatternContains(r.L, lowerOf(a)) {
		t.Fatal("L̄ does not contain tril(A)")
	}
	if !sparse.PatternContains(r.UCols(), upperOf(a)) {
		t.Fatal("Ū does not contain triu(A)")
	}
}

func lowerOf(a *sparse.CSC) *sparse.Pattern {
	n := a.NCols
	p := &sparse.Pattern{NRows: n, NCols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		rows, _ := a.Col(j)
		for _, i := range rows {
			if i >= j {
				p.RowInd = append(p.RowInd, i)
			}
		}
		p.ColPtr[j+1] = len(p.RowInd)
	}
	return p
}

func upperOf(a *sparse.CSC) *sparse.Pattern {
	n := a.NCols
	p := &sparse.Pattern{NRows: n, NCols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		rows, _ := a.Col(j)
		for _, i := range rows {
			if i <= j {
				p.RowInd = append(p.RowInd, i)
			}
		}
		p.ColPtr[j+1] = len(p.RowInd)
	}
	return p
}

// simulateLUFill performs dense Gaussian elimination on the *structure*
// with an arbitrary pivot choice among the structurally valid candidate
// rows at each step, and returns the fill structure it produced. Row
// interchanges swap only the trailing columns ≥ k, matching the S+
// numerical scheme (already-factored L columns stay in place and the
// pivot sequence is replayed at solve time). The George–Ng guarantee is
// that the working structure is always contained in Ā.
func simulateLUFill(a *sparse.CSC, rng *rand.Rand) [][]bool {
	n := a.NCols
	d := a.ToDense()
	s := make([][]bool, n)
	for i := 0; i < n; i++ {
		s[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			s[i][j] = d[i*n+j] != 0
		}
	}
	for k := 0; k < n; k++ {
		var cand []int
		for i := k; i < n; i++ {
			if s[i][k] {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			continue
		}
		p := cand[rng.Intn(len(cand))]
		for j := k; j < n; j++ {
			s[k][j], s[p][j] = s[p][j], s[k][j]
		}
		for i := k + 1; i < n; i++ {
			if s[i][k] {
				for j := k + 1; j < n; j++ {
					if s[k][j] {
						s[i][j] = true
					}
				}
			}
		}
	}
	return s
}

func TestStaticStructureCoversAllPivotSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(15)
		a := randomZeroFreeDiag(n, 0.2, rng)
		r, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		u := r.UCols()
		for rep := 0; rep < 5; rep++ {
			s := simulateLUFill(a, rng)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if !s[i][j] {
						continue
					}
					var ok bool
					if i > j {
						ok = r.L.Has(i, j)
					} else {
						ok = u.Has(i, j)
					}
					if !ok {
						t.Fatalf("trial %d rep %d: fill (%d,%d) not covered by Ā", trial, rep, i, j)
					}
				}
			}
		}
	}
}

func TestUAndURowsAreTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randomZeroFreeDiag(20, 0.15, rng)
	r, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	u := r.UCols()
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.N; j++ {
			if u.Has(i, j) != r.URows.Has(j, i) {
				t.Fatalf("UCols has (%d,%d) %v, URows has it %v", i, j, u.Has(i, j), r.URows.Has(j, i))
			}
		}
		if !slices.IsSorted(u.Col(i)) {
			t.Fatalf("UCols column %d not sorted: %v", i, u.Col(i))
		}
	}
}

func TestTriangularShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	a := randomZeroFreeDiag(25, 0.1, rng)
	r, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < r.N; j++ {
		lc := r.L.Col(j)
		if len(lc) == 0 || lc[0] != j {
			t.Fatalf("L column %d does not start at the diagonal: %v", j, lc)
		}
		ur := r.URows.Col(j)
		if len(ur) == 0 || ur[0] != j {
			t.Fatalf("U row %d does not start at the diagonal: %v", j, ur)
		}
	}
}

func TestFillRatio(t *testing.T) {
	a := paperMatrix()
	r, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.FillRatio(a.NNZ()); got < 1 {
		t.Fatalf("fill ratio %g < 1", got)
	}
}

// Property: Factor matches the dense reference on random matrices.
func TestQuickFactorMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(18)
		a := randomZeroFreeDiag(n, 0.1+rng.Float64()*0.3, rng)
		got, err := Factor(a)
		if err != nil {
			return false
		}
		want := factorNaive(a)
		return patternsEqual(got.L, want.L) && patternsEqual(got.URows, want.URows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
