package sparselu

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
)

func buildRandom(t *testing.T, n int, density float64, seed int64) *Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	rowAbs := make([]float64, n)
	type e struct {
		i, j int
		v    float64
	}
	var es []e
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				v := rng.NormFloat64()
				es = append(es, e{i, j, v})
				rowAbs[i] += math.Abs(v)
			}
		}
	}
	for _, x := range es {
		b.Add(x.i, x.j, x.v)
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, rowAbs[i]+1)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQuickstartExample(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 4)
	b.Add(0, 1, 1)
	b.Add(1, 0, 2)
	b.Add(1, 1, 5)
	b.Add(1, 2, 1)
	b.Add(2, 1, 3)
	b.Add(2, 2, 6)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{1, 2, 3}
	x, err := f.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(m, x, rhs); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := buildRandom(t, 10, 0.3, 1)
	if m.Order() != 10 {
		t.Fatal("Order wrong")
	}
	if m.NNZ() < 10 {
		t.Fatal("NNZ too small")
	}
	x := make([]float64, 10)
	for i := range x {
		x[i] = 1
	}
	y := m.MulVec(x)
	if len(y) != 10 {
		t.Fatal("MulVec length")
	}
	s := m.Scale(2)
	if s.At(0, 0) != 2*m.At(0, 0) {
		t.Fatal("Scale wrong")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := buildRandom(t, 12, 0.25, 2)
	var buf bytes.Buffer
	if err := m.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Order() != m.Order() || m2.NNZ() != m.NNZ() {
		t.Fatal("round trip changed the matrix")
	}
}

func TestReadMatrixMarketRejectsRectangular(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"
	if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
}

func TestReadMatrixMarketRejectsOutOfRange(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
	if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
		t.Fatal("entry outside the declared size accepted")
	}
}

func TestBuilderRejectsRectangular(t *testing.T) {
	b := &Builder{}
	_ = b
	// NewBuilder only builds square matrices; verify Build checks too.
	m := NewBuilder(2)
	m.Add(0, 0, 1)
	m.Add(1, 1, 1)
	if _, err := m.Build(); err != nil {
		t.Fatal(err)
	}
}

// TestBadInputDoesNotPanic pins that the public entry points report bad
// input instead of panicking: Residual returns NaN for vectors of the
// wrong length, and Build returns the first index outside the matrix or
// a negative order.
func TestBadInputDoesNotPanic(t *testing.T) {
	m := buildRandom(t, 6, 0.3, 6)
	ok := make([]float64, 6)
	for _, c := range []struct {
		name string
		x, b []float64
	}{
		{"short x", make([]float64, 5), ok},
		{"long x", make([]float64, 7), ok},
		{"short b", ok, make([]float64, 5)},
		{"long b", ok, make([]float64, 7)},
		{"nil both", nil, nil},
	} {
		if r := Residual(m, c.x, c.b); !math.IsNaN(r) {
			t.Errorf("Residual with %s = %v, want NaN", c.name, r)
		}
	}
	if r := Residual(m, ok, ok); r != 0 {
		t.Errorf("Residual of the zero solution of a zero right-hand side = %v, want 0", r)
	}

	for _, c := range []struct {
		name string
		n    int
		add  [][2]int
		want string
	}{
		{"row past the order", 2, [][2]int{{0, 0}, {2, 0}, {1, 1}}, "(2,0) outside the 2×2"},
		{"negative column", 3, [][2]int{{0, -1}}, "(0,-1) outside the 3×3"},
		{"first mistake kept", 2, [][2]int{{0, 5}, {7, 0}}, "(0,5)"},
		{"empty matrix", 0, [][2]int{{0, 0}}, "(0,0) outside the 0×0"},
		{"negative order", -1, nil, "negative order -1"},
		{"negative order, then an entry", -2, [][2]int{{0, 0}}, "negative order -2"},
	} {
		b := NewBuilder(c.n)
		for _, e := range c.add {
			b.Add(e[0], e[1], 1)
		}
		if m, err := b.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Build = %v, %v; want an error mentioning %q", c.name, m, err, c.want)
		}
	}
	if m, err := NewBuilder(0).Build(); err != nil || m.Order() != 0 {
		t.Errorf("NewBuilder(0).Build() = %v, %v", m, err)
	}
}

func TestAnalyzeStatsPublic(t *testing.T) {
	m := buildRandom(t, 50, 0.08, 3)
	a, err := Analyze(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Order != 50 || st.NNZ != m.NNZ() {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.FillRatio < 1 || st.Supernodes < 1 || st.Tasks < 1 {
		t.Fatalf("stats implausible: %+v", st)
	}
	f, err := a.Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, 50)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	x, err := f.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(m, x, rhs); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

func TestAllOptionCombos(t *testing.T) {
	m := buildRandom(t, 40, 0.1, 4)
	rhs := make([]float64, 40)
	for i := range rhs {
		rhs[i] = 1
	}
	for _, ord := range []Ordering{MinDegree, NaturalOrder, RCM} {
		for _, post := range []bool{true, false} {
			for _, w := range []int{1, 4} {
				opts := &Options{Ordering: ord, Postorder: post, Workers: w, MaxSupernode: 8, AmalgamationFill: 0.3}
				f, err := Factorize(m, opts)
				if err != nil {
					t.Fatalf("%v/%v/%d: %v", ord, post, w, err)
				}
				x, err := f.Solve(rhs)
				if err != nil {
					t.Fatal(err)
				}
				if r := Residual(m, x, rhs); r > 1e-10 {
					t.Fatalf("%v/%v/%d: residual %g", ord, post, w, r)
				}
			}
		}
	}
}

func TestSolveMany(t *testing.T) {
	m := buildRandom(t, 20, 0.2, 5)
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{make([]float64, 20), make([]float64, 20)}
	bs[0][0] = 1
	bs[1][19] = 1
	xs, err := f.SolveMany(bs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range xs {
		if r := Residual(m, xs[k], bs[k]); r > 1e-10 {
			t.Fatalf("rhs %d: residual %g", k, r)
		}
	}
}

func TestSingularReported(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2)
	b.Add(1, 0, 2)
	b.Add(1, 1, 4)
	m, _ := b.Build()
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Singular() {
		t.Fatal("singular matrix not reported")
	}
}

func TestBenchmarkSuiteThroughPublicAPI(t *testing.T) {
	// The small suite end-to-end through the facade.
	for _, spec := range matgen.SmallSuite() {
		m := WrapCSC(spec.Gen())
		opts := DefaultOptions()
		opts.Workers = 2
		f, err := Factorize(m, opts)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		rhs := make([]float64, m.Order())
		for i := range rhs {
			rhs[i] = 1
		}
		x, err := f.Solve(rhs)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if r := Residual(m, x, rhs); r > 1e-9 {
			t.Fatalf("%s: residual %g", spec.Name, r)
		}
	}
}

func TestQuickPublicPipeline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		b := NewBuilder(n)
		rowAbs := make([]float64, n)
		type e struct {
			i, j int
			v    float64
		}
		var es []e
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.15 {
					v := rng.NormFloat64()
					es = append(es, e{i, j, v})
					rowAbs[i] += math.Abs(v)
				}
			}
		}
		for _, x := range es {
			b.Add(x.i, x.j, x.v)
		}
		for i := 0; i < n; i++ {
			b.Add(i, i, rowAbs[i]+1)
		}
		m, err := b.Build()
		if err != nil {
			return false
		}
		fac, err := Factorize(m, &Options{Ordering: MinDegree, Postorder: true, Workers: 1 + rng.Intn(3), MaxSupernode: 8, AmalgamationFill: 0.25})
		if err != nil {
			return false
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x, err := fac.Solve(rhs)
		if err != nil {
			return false
		}
		return Residual(m, x, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
