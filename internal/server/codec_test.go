package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/matgen"
)

// decodeBoth decodes body into a fresh request of the kind the leading
// byte names ('a' analyze, 'f' factorize, anything else solve) with the
// codec and with a json.Decoder that disallows unknown fields, and
// returns both results.
func decodeBoth(data []byte) (got, want any, gotErr, wantErr error) {
	kind, body := byte('s'), data
	if len(data) > 0 {
		kind, body = data[0], data[1:]
	}
	var fields func(*decoder, []byte) error
	switch kind {
	case 'a':
		g, w := &analyzeRequest{}, &analyzeRequest{}
		got, want, fields = g, w, g.field
	case 'f':
		g, w := &factorizeRequest{}, &factorizeRequest{}
		got, want, fields = g, w, g.field
	default:
		g, w := &solveRequest{}, &solveRequest{}
		got, want, fields = g, w, g.field
	}
	gotErr = decodeRequest(body, fields)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	wantErr = dec.Decode(want)
	return got, want, gotErr, wantErr
}

// sameValue is deep equality with floats compared by their bits and a
// nil slice told apart from an empty one.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return sameValue(a.Elem(), b.Elem())
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// FuzzDecodeRequest is the codec's differential test: a body is
// accepted if and only if encoding/json's Decoder with
// DisallowUnknownFields accepts it into the same request struct, and
// then every field is equal, floats bit for bit. The seed corpus in
// testdata/fuzz/FuzzDecodeRequest holds the README's curl bodies, the
// benchmark's body shapes and the corners where the two could part:
// case-folded and escaped keys, duplicate keys decoded in place, null,
// string escapes and invalid UTF-8, -0, out-of-range and non-JSON
// numbers, trailing bytes, and empty or one-element arrays.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want, gotErr, wantErr := decodeBoth(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: codec error %v, encoding/json error %v", data, gotErr, wantErr)
		}
		if gotErr == nil && !sameValue(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("body %q: codec decoded %+v, encoding/json %+v", data, got, want)
		}
	})
}

// TestEncodeSolveMatchesMarshal pins the reply encoder to json.Marshal
// byte for byte over every field and the float formats where the ES6
// rules switch notation or shorten the exponent.
func TestEncodeSolveMatchesMarshal(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 1e-6, 9.999999999999999e-7,
		1e20, 1e21, 999999999999999900000, 123456789012345680000,
		5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
		0.30000000000000004, 2.718281828459045, 1.0000000000000002, 1e-9, 1.5e-10, 1e100,
	}
	cases := []solveResponse{
		{Rung: "fail"},
		{X: floats, Residual: 1e-17, Rung: "fail"},
		{X: []float64{}, Residual: math.Copysign(0, -1), Rung: "perturb"},
		{XS: [][]float64{floats, nil, {}, {5e-324}}, Residuals: floats, Rung: "equilibrate"},
		{X: []float64{-0.5}, Residual: 3.3e-300, RefineSteps: 4, Rung: "perturb"},
		{Residuals: []float64{}, RefineSteps: -2, Rung: "a<b>&\"c\"\\é\n"},
	}
	for _, v := range floats {
		cases = append(cases, solveResponse{X: []float64{v}, Residual: v, Rung: "fail"})
	}
	for i, c := range cases {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeSolve([]byte("prefix"), &c)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got[len("prefix"):], want)
		}
	}
}

// TestNonFiniteReplyIs422 pins that a reply JSON cannot hold is the
// non-finite class, never a 200 with an empty body: the solve reply
// encoder and the generic writer both answer 422 non_finite.
func TestNonFiniteReplyIs422(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, resp := range []solveResponse{
		{X: []float64{1}, Residual: math.NaN(), Rung: "fail"},
		{X: []float64{math.Inf(1)}, Rung: "fail"},
		{XS: [][]float64{{1}, {math.NaN()}}, Residuals: []float64{0, 0}, Rung: "fail"},
		{XS: [][]float64{{1}}, Residuals: []float64{math.Inf(-1)}, Rung: "fail"},
	} {
		he := s.writeSolve(httptest.NewRecorder(), &resp)
		if he == nil || he.status != http.StatusUnprocessableEntity || he.code != "non_finite" {
			t.Errorf("reply %+v: got %+v, want 422 non_finite", resp, he)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, statsJSON{FillRatio: math.Inf(1)})
	var er errorResponse
	if rec.Code != http.StatusUnprocessableEntity || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Code != "non_finite" {
		t.Errorf("writeJSON of an Inf: status %d, body %q", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkCodec times the wire codec on the solve_stream workload's
// body shapes at lnsp3937's order: a one-RHS solve body ("b"), a
// 16-RHS one ("bs"), the factorize body of the matrix, and the solve
// replies to them: one 3 937-element vector ("x"), sixteen ("xs16"),
// and one whose values are all below 1e-6, so that every number takes
// the exponent form ("exp"). Each decode goes into a fresh request, as
// a handler's does, so allocs/op counts the slices it grows. ns/number
// is the time per number of the body or reply.
func BenchmarkCodec(b *testing.B) {
	a := matgen.Lnsp3937()
	rng := rand.New(rand.NewSource(1))
	rhs := func() []float64 {
		v := make([]float64, a.NCols)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	var m matrixJSON
	m.N = a.NCols
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			m.Rows = append(m.Rows, a.RowInd[p])
			m.Cols = append(m.Cols, j)
			m.Vals = append(m.Vals, a.Val[p])
		}
	}
	one := solveRequest{FID: "f0", B: rhs()}
	many := solveRequest{FID: "f0"}
	for range 16 {
		many.BS = append(many.BS, rhs())
	}
	decodes := []struct {
		name    string
		req     any
		numbers int
		fields  func() func(*decoder, []byte) error
	}{
		{"decode/b", one, a.NCols, func() func(*decoder, []byte) error { return new(solveRequest).field }},
		{"decode/bs16", many, 16 * a.NCols, func() func(*decoder, []byte) error { return new(solveRequest).field }},
		{"decode/factorize", factorizeRequest{Matrix: m}, 1 + 3*len(m.Vals), func() func(*decoder, []byte) error { return new(factorizeRequest).field }},
	}
	for _, c := range decodes {
		body, err := json.Marshal(c.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for range b.N {
				if err := decodeRequest(body, c.fields()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.numbers), "ns/number")
		})
	}
	small := make([]float64, a.NCols)
	for i := range small {
		small[i] = rng.NormFloat64() * 1e-9
	}
	var xs [][]float64
	for range 16 {
		xs = append(xs, rhs())
	}
	encodes := []struct {
		name  string
		reply solveResponse
	}{
		{"encode/x", solveResponse{X: rhs(), Residual: 1e-16, Rung: "fail"}},
		{"encode/xs16", solveResponse{XS: xs, Residuals: make([]float64, 16), Rung: "fail"}},
		{"encode/exp", solveResponse{X: small, Residual: 1e-16, Rung: "fail"}},
	}
	for _, c := range encodes {
		numbers := len(c.reply.X)
		for _, x := range c.reply.XS {
			numbers += len(x)
		}
		b.Run(c.name, func(b *testing.B) {
			buf, err := encodeSolve(nil, &c.reply)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if buf, err = encodeSolve(buf[:0], &c.reply); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*numbers), "ns/number")
		})
	}
}
