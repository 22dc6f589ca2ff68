package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/matgen"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// toMatrixJSON converts a CSC to the wire triplet form.
func toMatrixJSON(m *sparse.CSC) matrixJSON {
	mj := matrixJSON{N: m.NCols}
	for j := 0; j < m.NCols; j++ {
		rows, vals := m.Col(j)
		for k, i := range rows {
			mj.Rows = append(mj.Rows, i)
			mj.Cols = append(mj.Cols, j)
			mj.Vals = append(mj.Vals, vals[k])
		}
	}
	return mj
}

// testMatrix builds a small diagonally dominant 2D operator.
func testMatrix() *sparse.CSC { return matgen.Sherman5() }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends a JSON request and decodes the response into out (which
// may be nil). It returns the status code and raw body.
func post(t *testing.T, ts *httptest.Server, path string, req, out any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("unmarshal %s: %v (body %s)", path, err, buf.String())
		}
	}
	return resp.StatusCode, buf.Bytes()
}

func factorizeOK(t *testing.T, ts *httptest.Server, m *sparse.CSC, policy string) factorizeResponse {
	t.Helper()
	var resp factorizeResponse
	status, body := post(t, ts, "/v1/factorize", factorizeRequest{Matrix: toMatrixJSON(m), Policy: policy}, &resp)
	if status != http.StatusOK {
		t.Fatalf("factorize: status %d, body %s", status, body)
	}
	return resp
}

func TestServerRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	m := testMatrix()
	fr := factorizeOK(t, ts, m, "")
	if fr.Rung != "fail" || fr.Refine || fr.Perturbations != 0 {
		t.Errorf("healthy matrix should win the strict rung: %+v", fr)
	}
	n := m.NCols
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	var sr solveResponse
	status, body := post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, B: b}, &sr)
	if status != http.StatusOK {
		t.Fatalf("solve: status %d, body %s", status, body)
	}
	if len(sr.X) != n {
		t.Fatalf("solution length %d, want %d", len(sr.X), n)
	}
	if sr.Residual > 1e-12 {
		t.Errorf("residual %g too large for a healthy system", sr.Residual)
	}
	// Multi-RHS path.
	var mr solveResponse
	status, body = post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, BS: [][]float64{b, b}}, &mr)
	if status != http.StatusOK {
		t.Fatalf("multi solve: status %d, body %s", status, body)
	}
	if len(mr.XS) != 2 || len(mr.Residuals) != 2 {
		t.Fatalf("multi solve shape: %d xs, %d residuals", len(mr.XS), len(mr.Residuals))
	}
	// The panel sweeps round differently from the vector sweeps a
	// single-RHS request runs on, so the multi-RHS reply is pinned to the
	// library's SolveMany bit for bit and to the single-RHS reply only
	// within rounding.
	want, err := handleOf(t, s, fr.FID).res.f.SolveManyWith([][]float64{b, b}, &core.NumericOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		for i := range want[r] {
			if mr.XS[r][i] != want[r][i] {
				t.Fatalf("multi-RHS x%d[%d] = %x, SolveManyWith %x", r, i, mr.XS[r][i], want[r][i])
			}
		}
	}
	for i := range sr.X {
		if math.Abs(mr.XS[0][i]-sr.X[i]) > 1e-12*(1+math.Abs(sr.X[i])) {
			t.Fatalf("multi-RHS x[%d] = %g, single-RHS %g", i, mr.XS[0][i], sr.X[i])
		}
	}
}

// TestCacheHitSkipsAnalyze pins the symbolic cache contract: repeated
// factorizations of the same sparsity pattern (different values!) run
// core.Analyze exactly once — the hit path provably skips it, counted
// by the cache's analyzes counter.
func TestCacheHitSkipsAnalyze(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	m := testMatrix()

	fr1 := factorizeOK(t, ts, m, "")
	if fr1.SymbolicCached {
		t.Error("first factorize reported a cache hit")
	}
	// Same pattern, scaled values: must hit.
	mj := toMatrixJSON(m)
	for i := range mj.Vals {
		mj.Vals[i] *= 3
	}
	var fr2 factorizeResponse
	status, body := post(t, ts, "/v1/factorize", factorizeRequest{Matrix: mj}, &fr2)
	if status != http.StatusOK {
		t.Fatalf("second factorize: status %d, body %s", status, body)
	}
	if !fr2.SymbolicCached {
		t.Error("second factorize of the same pattern missed the cache")
	}
	if fr2.Key != fr1.Key {
		t.Errorf("same pattern produced different keys %q, %q", fr1.Key, fr2.Key)
	}
	if got := s.cache.analyzes.Load(); got != 1 {
		t.Errorf("core.Analyze ran %d times, want exactly 1", got)
	}
	if got := s.cache.hits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestSolveReplyIsLibrarySolve pins that a single-RHS request just
// solves: sent one at a time or all at once, as {"b": v} or as
// {"bs": [v]}, every reply is bitwise the library's SolveWith on the
// stored factorization, its residual bitwise core.Residual's, and
// /metrics counts one solve call and one right-hand side per request.
// One request of all the right-hand sides pins each residual too.
func TestSolveReplyIsLibrarySolve(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxInFlight: 32, MaxQueue: 64})
	m := testMatrix()
	fr := factorizeOK(t, ts, m, "")
	f := handleOf(t, s, fr.FID).res.f

	const nrhs = 32
	rhs := make([][]float64, nrhs)
	want := make([][]float64, nrhs)
	for r := range rhs {
		b := make([]float64, m.NCols)
		for i := range b {
			b[i] = float64((i+3*r)%11) - 5
		}
		x, err := f.SolveWith(b, &core.NumericOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rhs[r], want[r] = b, x
	}
	check := func(pass string, r int) error {
		var sr, srs solveResponse
		status, body := post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, B: rhs[r]}, &sr)
		if status != http.StatusOK {
			return fmt.Errorf("%s solve %d: status %d, body %s", pass, r, status, body)
		}
		status, body = post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, BS: [][]float64{rhs[r]}}, &srs)
		if status != http.StatusOK || len(srs.XS) != 1 {
			return fmt.Errorf("%s solve %d as bs: status %d, body %s", pass, r, status, body)
		}
		for i := range want[r] {
			if sr.X[i] != want[r][i] || srs.XS[0][i] != want[r][i] {
				return fmt.Errorf("%s solve %d: x[%d] = %x, bs x[%d] = %x, SolveWith %x",
					pass, r, i, sr.X[i], i, srs.XS[0][i], want[r][i])
			}
		}
		if res := core.Residual(m, want[r], rhs[r]); len(srs.Residuals) != 1 ||
			math.Float64bits(sr.Residual) != math.Float64bits(res) || math.Float64bits(srs.Residuals[0]) != math.Float64bits(res) {
			return fmt.Errorf("%s solve %d: residual %x, bs residuals %x, core.Residual %x",
				pass, r, sr.Residual, srs.Residuals, res)
		}
		return nil
	}

	for r := range rhs {
		if err := check("serial", r); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, nrhs)
	var wg sync.WaitGroup
	for r := range rhs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = check("concurrent", r)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	// All right-hand sides in one request share the residual's scratch;
	// each residual is still core.Residual's of its own solution.
	var all solveResponse
	if status, body := post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, BS: rhs}, &all); status != http.StatusOK || len(all.XS) != nrhs || len(all.Residuals) != nrhs {
		t.Fatalf("solve of %d right-hand sides: status %d, body %.200s", nrhs, status, body)
	}
	for r := range rhs {
		if res := core.Residual(m, all.XS[r], rhs[r]); math.Float64bits(all.Residuals[r]) != math.Float64bits(res) {
			t.Errorf("bs residual %d = %x, core.Residual %x", r, all.Residuals[r], res)
		}
	}

	snap := fetchMetrics(t, ts)
	if snap.SolveCalls.Calls != 4*nrhs+1 || snap.SolveCalls.RHS != 5*nrhs {
		t.Errorf("/metrics counts %d solve calls of %d right-hand sides, want %d of %d",
			snap.SolveCalls.Calls, snap.SolveCalls.RHS, 4*nrhs+1, 5*nrhs)
	}
}

// TestRefinedReplyIsLibraryRefine pins a refined bs request to the
// library: each solution is core's refined solve bit for bit, and each
// residual is core.Residual of its own solution, though the server
// passes the ‖A‖∞ it stored at factorize instead of recomputing it.
func TestRefinedReplyIsLibraryRefine(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	m := testMatrix()
	fr := factorizeOK(t, ts, m, "")
	f := handleOf(t, s, fr.FID).res.f
	rhs := make([][]float64, 4)
	for r := range rhs {
		rhs[r] = make([]float64, m.NCols)
		for i := range rhs[r] {
			rhs[r][i] = float64((i+5*r)%13) - 6
		}
	}
	var sr solveResponse
	status, body := post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, BS: rhs, Refine: true}, &sr)
	if status != http.StatusOK || len(sr.XS) != len(rhs) || len(sr.Residuals) != len(rhs) {
		t.Fatalf("refined solve: status %d, body %.200s", status, body)
	}
	for r, b := range rhs {
		want, berr, _, err := f.SolveRefinedWith(m, m.NormInf(), b, 20, 1e-11, &core.NumericOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(sr.XS[r][i]) != math.Float64bits(want[i]) {
				t.Fatalf("rhs %d: x[%d] = %x, SolveRefinedWith %x", r, i, sr.XS[r][i], want[i])
			}
		}
		res := core.Residual(m, sr.XS[r], b)
		if math.Float64bits(sr.Residuals[r]) != math.Float64bits(res) || math.Float64bits(berr) != math.Float64bits(res) {
			t.Errorf("rhs %d: residual %x, SolveRefinedWith's %x, core.Residual %x", r, sr.Residuals[r], berr, res)
		}
	}
}

// TestRecoveryLadder drives the graceful-degradation path end to end:
// a numerically near-singular (but structurally healthy) system fails
// the strict rung, wins the perturbed rung, and refined solves on a
// consistent right-hand side still meet the advertised residual bound.
func TestRecoveryLadder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	m, _, _ := matgen.NearSingular(12, 9, 42)

	// Strict policy: hard 422 with the failed rung attached.
	status, body := post(t, ts, "/v1/factorize", factorizeRequest{Matrix: toMatrixJSON(m), Policy: "fail"}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("policy=fail on near-singular: status %d, body %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("unmarshal error body: %v", err)
	}
	if er.Code != "singular" || len(er.Rungs) != 1 || er.Rungs[0].OK {
		t.Errorf("want singular error with one failed rung, got %+v", er)
	}

	// Ladder policy: degrade gracefully and say so.
	fr := factorizeOK(t, ts, m, "ladder")
	if fr.Rung != "perturb" || !fr.Refine || fr.Perturbations == 0 {
		t.Fatalf("ladder should win the perturb rung with perturbations: %+v", fr)
	}
	if len(fr.Rungs) != 2 || fr.Rungs[0].OK || !fr.Rungs[1].OK {
		t.Fatalf("rung reports wrong: %+v", fr.Rungs)
	}

	// Consistent right-hand side: b = A·1.
	n := m.NCols
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, n)
	m.MulVec(ones, b)
	var sr solveResponse
	status, body = post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, B: b}, &sr)
	if status != http.StatusOK {
		t.Fatalf("refined solve: status %d, body %s", status, body)
	}
	if sr.Residual > 1e-10 {
		t.Errorf("refined residual %g exceeds the 1e-10 bound", sr.Residual)
	}
	if sr.Rung != "perturb" {
		t.Errorf("solve reported rung %q, want perturb", sr.Rung)
	}
}

// TestRecoveryLadderAfterFailedRung pins that a rung's failure stops
// only that rung. On the 2×2 system [[1e-320, 1], [1e-321, 1]] the
// strict rung's Factor task fails non-finite (the static row set keeps
// the subnormal pivot), and the perturbed rung, under the same request
// context, must still run and win with one perturbation.
func TestRecoveryLadderAfterFailedRung(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 1e-320)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1e-321)
	tr.Add(1, 1, 1)
	m := tr.ToCSC()

	fr := factorizeOK(t, ts, m, "ladder")
	if fr.Rung != "perturb" || !fr.Refine || fr.Perturbations != 1 {
		t.Fatalf("ladder should win the perturb rung with one perturbation: %+v", fr)
	}
	if len(fr.Rungs) != 2 {
		t.Fatalf("rung reports %+v, want [fail ✗, perturb ✓]", fr.Rungs)
	}
	if r := fr.Rungs[0]; r.Rung != "fail" || r.OK || !strings.Contains(r.Error, core.ErrNonFinite.Error()) {
		t.Errorf("first rung %+v, want fail with a non-finite error", r)
	}
	if r := fr.Rungs[1]; r.Rung != "perturb" || !r.OK || r.Perturbations != 1 {
		t.Errorf("second rung %+v, want perturb ok with one perturbation", r)
	}

	// Consistent right-hand side: b = A·1; the reply is refined.
	b := make([]float64, 2)
	m.MulVec([]float64{1, 1}, b)
	var sr solveResponse
	status, body := post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, B: b}, &sr)
	if status != http.StatusOK {
		t.Fatalf("refined solve: status %d, body %s", status, body)
	}
	if sr.Residual > 1e-10 {
		t.Errorf("refined residual %g exceeds the 1e-10 bound", sr.Residual)
	}
	if sr.Rung != "perturb" {
		t.Errorf("solve reported rung %q, want perturb", sr.Rung)
	}
}

// TestStatusMapping pins the documented error-code table at both the
// transport level and the mapError unit level.
func TestStatusMapping(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// 400: malformed body.
	resp, err := ts.Client().Post(ts.URL+"/v1/factorize", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// 400: out-of-range index.
	status, _ := post(t, ts, "/v1/factorize", factorizeRequest{Matrix: matrixJSON{N: 2, Rows: []int{5}, Cols: []int{0}, Vals: []float64{1}}}, nil)
	if status != http.StatusBadRequest {
		t.Errorf("out-of-range entry: status %d, want 400", status)
	}
	// 404: unknown factorization.
	status, _ = post(t, ts, "/v1/solve", solveRequest{FID: "f999", B: []float64{1}}, nil)
	if status != http.StatusNotFound {
		t.Errorf("unknown fid: status %d, want 404", status)
	}
	// 504: a deadline far too small for a real factorization.
	status, body := post(t, ts, "/v1/factorize", factorizeRequest{Matrix: toMatrixJSON(matgen.Goodwin()), TimeoutMS: 1}, nil)
	if status != http.StatusGatewayTimeout {
		t.Errorf("1ms factorize: status %d, want 504 (body %s)", status, body)
	}

	// The mapping itself, one error per class.
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{&core.SingularError{Col: 1}, 422, "singular"},
		{fmt.Errorf("x: %w", core.ErrNonFinite), 422, "non_finite"},
		{&sched.CancelError{Cause: core.ErrDeadlineExceeded}, 504, "deadline"},
		{&sched.CancelError{}, 499, "canceled"},
		{context.DeadlineExceeded, 504, "deadline"},
		{context.Canceled, 499, "canceled"},
		{errShed, 429, "shed"},
		{errors.New("boom"), 500, "internal"},
	} {
		he := s.mapError(tc.err)
		if he.status != tc.status || he.code != tc.code {
			t.Errorf("mapError(%v) = %d/%s, want %d/%s", tc.err, he.status, he.code, tc.status, tc.code)
		}
	}
	if he := s.mapError(errShed); he.retryAfter < 1 || he.retryAfter > 5 {
		t.Errorf("shed retry-after %d outside [1,5]", he.retryAfter)
	}
}

// TestHugeTimeoutIsMaxDeadline pins that a timeout_ms too large for a
// time.Duration means MaxDeadline on every route that takes one: the
// largest int64 must not wrap to a negative deadline and answer a
// healthy request 504.
func TestHugeTimeoutIsMaxDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := testMatrix()
	var fr factorizeResponse
	status, body := post(t, ts, "/v1/factorize", factorizeRequest{Matrix: toMatrixJSON(m), TimeoutMS: math.MaxInt64}, &fr)
	if status != http.StatusOK {
		t.Fatalf("factorize with timeout_ms = MaxInt64: status %d, want 200 (body %s)", status, body)
	}
	b := make([]float64, m.NCols)
	status, body = post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, B: b, TimeoutMS: math.MaxInt64}, nil)
	if status != http.StatusOK {
		t.Fatalf("solve with timeout_ms = MaxInt64: status %d, want 200 (body %s)", status, body)
	}
}

// TestStructurallySingularIs422 pins that a matrix no values can make
// nonsingular — here column 1 is empty — is answered 422 singular on
// both routes that analyze it, not 500.
func TestStructurallySingularIs422(t *testing.T) {
	expectSingular(t, `{"matrix":{"n":2,"rows":[0,1],"cols":[0,0],"vals":[1,1]}}`)
}

// TestHugeOrderIs422 pins that a declared order above the entry count
// is answered 422 singular (some column is empty) before anything of
// that order is allocated: 2⁴⁰ here, whose n-length slices would be an
// unrecoverable out-of-memory.
func TestHugeOrderIs422(t *testing.T) {
	expectSingular(t, `{"matrix":{"n":1099511627776,"rows":[0],"cols":[0],"vals":[1]}}`)
}

// expectSingular posts body to /v1/analyze and /v1/factorize and
// expects 422 singular from both, each counted in err_singular.
func expectSingular(t *testing.T, body string) {
	t.Helper()
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/analyze", "/v1/factorize"} {
		status, reply := post(t, ts, path, json.RawMessage(body), nil)
		var er errorResponse
		if err := json.Unmarshal(reply, &er); err != nil {
			t.Fatalf("%s: %v (body %s)", path, err, reply)
		}
		if status != http.StatusUnprocessableEntity || er.Code != "singular" {
			t.Errorf("%s: %d/%s, want 422/singular (body %s)", path, status, er.Code, reply)
		}
	}
	if got := s.met.singular.Load(); got != 2 {
		t.Errorf("err_singular = %d, want 2", got)
	}
}

// TestAdmissionSheds verifies load shedding: with one compute slot and
// a tiny queue, a burst of requests gets 429s with Retry-After while
// at least one request is served.
func TestAdmissionSheds(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInFlight: 1, MaxQueue: 1})
	m := testMatrix()
	fr := factorizeOK(t, ts, m, "")
	b := make([]float64, m.NCols)
	for i := range b {
		b[i] = 1
	}

	const burst = 16
	var ok, shed, other int
	var mu sync.Mutex
	var wg sync.WaitGroup
	// One slow request (Goodwin factorize) occupies the slot...
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts, "/v1/factorize", factorizeRequest{Matrix: toMatrixJSON(matgen.Goodwin())}, nil)
	}()
	time.Sleep(100 * time.Millisecond)
	// ...and the burst overflows the queue.
	for r := 0; r < burst; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(solveRequest{FID: fr.FID, B: b})
			resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After header")
				}
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if shed == 0 {
		t.Errorf("burst of %d against 1 slot shed nothing (ok=%d other=%d)", burst, ok, other)
	}
	if other != 0 {
		t.Errorf("unexpected status codes in burst: %d", other)
	}
}

// TestCloseAnswersQueuedSolves pins the drain contract for solves: the
// solves waiting in the server when Close runs are answered — finished
// (200, bitwise the library's SolveWith) or refused as draining (503),
// nothing else, at least one finished — and a solve on an existing
// handle after Close is refused as draining.
func TestCloseAnswersQueuedSolves(t *testing.T) {
	// The first solve (request 2) is held past the drain check, so at
	// least one solve is certainly in flight when Close runs.
	plan, err := faultinject.ParseRequestPlan("2:delay=100ms")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, MaxInFlight: 4, MaxQueue: 64, Faults: plan})
	m := testMatrix()
	fr := factorizeOK(t, ts, m, "")
	b := make([]float64, m.NCols)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	want, err := handleOf(t, s, fr.FID).res.f.SolveWith(b, &core.NumericOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const queued = 16
	statuses := make([]int, queued)
	replies := make([]solveResponse, queued)
	bodies := make([][]byte, queued)
	var wg sync.WaitGroup
	for r := range statuses {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			statuses[r], bodies[r] = post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, B: b}, &replies[r])
		}(r)
	}
	for deadline := time.Now().Add(5 * time.Second); plan.Fired() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	wg.Wait()
	ok := 0
	for r, status := range statuses {
		switch {
		case status == http.StatusOK:
			ok++
			for i := range want {
				if replies[r].X[i] != want[i] {
					t.Fatalf("solve %d in flight at Close: x[%d] = %x, SolveWith %x", r, i, replies[r].X[i], want[i])
				}
			}
		case status != http.StatusServiceUnavailable || !bytes.Contains(bodies[r], []byte(`"draining"`)):
			t.Errorf("solve %d in flight at Close: status %d, body %s", r, status, bodies[r])
		}
	}
	if ok == 0 {
		t.Error("no solve in flight at Close finished")
	}
	status, body := post(t, ts, "/v1/solve", solveRequest{FID: fr.FID, B: b}, nil)
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"draining"`)) {
		t.Errorf("solve on an existing handle after Close: status %d, body %s", status, body)
	}
}

// TestDrain pins shutdown behavior: after Close, liveness stays green,
// readiness and the compute endpoints answer 503.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: %d, want 200", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	status, _ := post(t, ts, "/v1/analyze", analyzeRequest{Matrix: matrixJSON{N: 1, Rows: []int{0}, Cols: []int{0}, Vals: []float64{1}}}, nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("analyze during drain: %d, want 503", status)
	}
}

// TestChaos is the acceptance stress of the issue: ≥32 concurrent
// requests against a server with deterministic injected faults
// (panics, input poisoning, delays) and a near-singular workload. The
// server must answer every request with a documented status code, keep
// serving afterwards, and leak no goroutines. Run under -race in CI.
func TestChaos(t *testing.T) {
	plan, err := faultinject.ParseRequestPlan("3:panic,7:nan,11:delay=30ms,19:panic,23:nan,29:delay=20ms")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Workers: 2, MaxInFlight: 8, MaxQueue: 64,
		Faults: plan, Seed: 7,
	})

	healthy := testMatrix()
	nearSing, _, _ := matgen.NearSingular(12, 9, 42)
	frHealthy := factorizeOK(t, ts, healthy, "")
	frSing := factorizeOK(t, ts, nearSing, "ladder")

	nh := healthy.NCols
	bh := make([]float64, nh)
	for i := range bh {
		bh[i] = float64(i%3) - 1
	}
	ones := make([]float64, nearSing.NCols)
	for i := range ones {
		ones[i] = 1
	}
	bs := make([]float64, nearSing.NCols)
	nearSing.MulVec(ones, bs)

	baseline := runtime.NumGoroutine()

	const concurrency = 40
	allowed := map[int]bool{200: true, 422: true, 429: true, 500: true, 504: true}
	counts := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < concurrency; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var status int
			var body []byte
			switch r % 4 {
			case 0:
				status, body = post(t, ts, "/v1/solve", solveRequest{FID: frHealthy.FID, B: bh}, nil)
			case 1:
				status, body = post(t, ts, "/v1/solve", solveRequest{FID: frSing.FID, B: bs}, nil)
			case 2:
				status, body = post(t, ts, "/v1/analyze", analyzeRequest{Matrix: toMatrixJSON(healthy)}, nil)
			case 3:
				status, body = post(t, ts, "/v1/factorize", factorizeRequest{Matrix: toMatrixJSON(nearSing), Policy: "ladder"}, nil)
			}
			mu.Lock()
			counts[status]++
			mu.Unlock()
			if !allowed[status] {
				t.Errorf("request %d: unexpected status %d (body %s)", r, status, body)
			}
			// Near-singular refined solves that succeed must meet the bound.
			if r%4 == 1 && status == 200 {
				var sr solveResponse
				if err := json.Unmarshal(body, &sr); err == nil && sr.Residual > 1e-10 {
					t.Errorf("request %d: ladder residual %g exceeds 1e-10", r, sr.Residual)
				}
			}
		}(r)
	}
	wg.Wait()

	if got := plan.Fired(); got != plan.Planned() {
		t.Errorf("fault plan fired %d of %d faults", got, plan.Planned())
	}
	if got := s.met.panics.Load(); got != 2 {
		t.Errorf("recovered panics = %d, want 2", got)
	}
	if counts[500] < 2 {
		t.Errorf("want ≥2 injected 500s, got %d (counts %v)", counts[500], counts)
	}
	if counts[200] == 0 {
		t.Error("chaos run produced no successful requests")
	}

	// The server must still be fully functional.
	var sr solveResponse
	status, body := post(t, ts, "/v1/solve", solveRequest{FID: frHealthy.FID, B: bh}, &sr)
	if status != http.StatusOK {
		t.Fatalf("post-chaos solve: status %d, body %s", status, body)
	}
	if sr.Residual > 1e-12 {
		t.Errorf("post-chaos residual %g", sr.Residual)
	}

	// No goroutine leaks: the transport keeps idle conns briefly, so
	// close them and poll.
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+4 {
		t.Errorf("goroutines %d, baseline %d: leak suspected", got, baseline)
	}
}

// TestPatternKey pins that the cache key depends on structure, not
// values.
func TestPatternKey(t *testing.T) {
	m := testMatrix()
	opts := core.DefaultOptions()
	k1 := patternKey(m, opts)
	scaled := toMatrixJSON(m)
	for i := range scaled.Vals {
		scaled.Vals[i] *= 2
	}
	m2, he := parseMatrix(&scaled, faultinject.Fault{})
	if he != nil {
		t.Fatal(he)
	}
	if k2 := patternKey(m2, opts); k2 != k1 {
		t.Errorf("same pattern, different keys: %q vs %q", k1, k2)
	}
	other, _, _ := matgen.NearSingular(8, 8, 1)
	if k3 := patternKey(other, opts); k3 == k1 {
		t.Error("different patterns share a key")
	}
}

// dropOffDiag returns a copy of a without one off-diagonal entry (the
// last one of the latest possible column at or after n/2), or nil when
// there is none — the smallest pattern change there is.
func dropOffDiag(a *sparse.CSC) *sparse.CSC {
	row, col := -1, -1
	for j := a.NCols / 2; j < a.NCols && row < 0; j++ {
		for p := a.ColPtr[j+1] - 1; p >= a.ColPtr[j]; p-- {
			if a.RowInd[p] != j {
				row, col = a.RowInd[p], j
				break
			}
		}
	}
	if row < 0 {
		return nil
	}
	out := &sparse.CSC{NRows: a.NRows, NCols: a.NCols, ColPtr: make([]int, a.NCols+1)}
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if j == col && a.RowInd[p] == row {
				continue
			}
			out.RowInd = append(out.RowInd, a.RowInd[p])
			out.Val = append(out.Val, a.Val[p])
		}
		out.ColPtr[j+1] = len(out.RowInd)
	}
	return out
}

// TestNearPatternMissAnalyzes pins the cache-miss route: a pattern one
// entry away from a resident one is a plain miss, served by a full
// core.Analyze whose stats are the response's, and /metrics reports a
// positive analyze latency for every resident pattern.
func TestNearPatternMissAnalyzes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	m := matgen.SmallSuite()[0].Gen()
	mod := dropOffDiag(m)
	if mod == nil {
		t.Fatal("no off-diagonal entry to drop")
	}
	var ar analyzeResponse
	status, body := post(t, ts, "/v1/analyze", analyzeRequest{Matrix: toMatrixJSON(m)}, &ar)
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d, body %s", status, body)
	}
	status, body = post(t, ts, "/v1/analyze", analyzeRequest{Matrix: toMatrixJSON(mod)}, &ar)
	if status != http.StatusOK {
		t.Fatalf("near-pattern analyze: status %d, body %s", status, body)
	}
	if ar.Cached {
		t.Fatal("near-pattern analyze hit the cache")
	}
	if got := s.cache.analyzes.Load(); got != 2 {
		t.Fatalf("analyzes = %d, want 2", got)
	}
	want, err := core.Analyze(mod, s.analysisOpt)
	if err != nil {
		t.Fatal(err)
	}
	st := want.Stats
	if ws := (statsJSON{N: st.N, NNZA: st.NNZA, NNZFactors: st.NNZFactors, FillRatio: st.FillRatio,
		Supernodes: st.Supernodes, Blocks: st.Blocks, Tasks: st.TaskCount}); ar.Stats != ws {
		t.Fatalf("response stats %+v, core.Analyze's %+v", ar.Stats, ws)
	}

	snap := fetchMetrics(t, ts)
	if len(snap.Cache.PatternSeconds) != snap.Cache.Entries {
		t.Errorf("metrics analyze_seconds has %d keys for %d resident patterns",
			len(snap.Cache.PatternSeconds), snap.Cache.Entries)
	}
	for key, sec := range snap.Cache.PatternSeconds {
		if sec <= 0 {
			t.Errorf("pattern %s reports non-positive analyze latency %v", key, sec)
		}
	}
}

// TestMemoryBudgetOnStoredSize pins that a handle is budgeted at what a
// factorization allocates — the dense values of the stored blocks, not
// |Ā| — by setting budgets the |Ā|-based estimate would have passed: one
// below a single handle (the too_large refusal trips) and one between
// one handle and two (the second factorization evicts the first).
func TestMemoryBudgetOnStoredSize(t *testing.T) {
	m := matgen.SmallSuite()[1].Gen()
	s, ts := newTestServer(t, Config{Workers: 1})
	sym, err := core.Analyze(m, s.analysisOpt)
	if err != nil {
		t.Fatal(err)
	}
	matrixBytes := int64(m.NNZ())*16 + int64(m.NCols)*64
	real := factorBytes(sym) + matrixBytes
	byFill := int64(sym.Stats.NNZFactors)*8 + matrixBytes
	if factorBytes(sym) < int64(sym.Stats.StoredEntries)*8 || 2*byFill > 3*real/2 {
		t.Fatalf("estimate %d B for %d stored entries (|Ā|-based %d B): the budgets below need it well above",
			real, sym.Stats.StoredEntries, byFill)
	}

	_, ts = newTestServer(t, Config{Workers: 1, MemoryBudget: (byFill + real) / 2})
	status, body := post(t, ts, "/v1/factorize", factorizeRequest{Matrix: toMatrixJSON(m)}, nil)
	if status != http.StatusRequestEntityTooLarge || !bytes.Contains(body, []byte(`"too_large"`)) {
		t.Fatalf("factorize under a budget below the handle: status %d, body %s", status, body)
	}
	// The refusal comes before the recovery ladder: no rung ran, so none won.
	if snap := fetchMetrics(t, ts); snap.RungFail+snap.RungPerturb+snap.RungEquilibrate != 0 {
		t.Fatalf("a refused factorize counts rung wins: %d / %d / %d",
			snap.RungFail, snap.RungPerturb, snap.RungEquilibrate)
	}

	s, ts = newTestServer(t, Config{Workers: 1, MemoryBudget: 3 * real / 2})
	first := factorizeOK(t, ts, m, "")
	second := factorizeOK(t, ts, m, "")
	if got := s.evictions.Load(); got != 1 {
		t.Fatalf("%d evictions after two handles of %d B under a budget of %d B, want 1", got, real, 3*real/2)
	}
	b := make([]float64, m.NCols)
	if status, body := post(t, ts, "/v1/solve", solveRequest{FID: first.FID, B: b}, nil); status != http.StatusNotFound {
		t.Fatalf("solve on the evicted handle: status %d, body %s", status, body)
	}
	if status, body := post(t, ts, "/v1/solve", solveRequest{FID: second.FID, B: b}, nil); status != http.StatusOK {
		t.Fatalf("solve on the kept handle: status %d, body %s", status, body)
	}
}

// fetchMetrics decodes the server's /metrics snapshot.
func fetchMetrics(t *testing.T, ts *httptest.Server) metricsSnapshot {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// handleOf returns the stored handle behind a factorization id.
func handleOf(t *testing.T, s *Server, fid string) *handle {
	t.Helper()
	h, he := s.lookup(fid)
	if he != nil {
		t.Fatal(he)
	}
	return h
}
