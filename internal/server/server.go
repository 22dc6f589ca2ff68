// Package server implements sluserver's HTTP core: a fault-tolerant,
// long-lived sparse LU solve service built on the repository's static
// symbolic pipeline. The service exists because the paper's central
// economics — analyze once, factorize and solve many times against the
// same pattern — only pay off in a process that outlives a single
// solve. The server makes that lifetime explicit:
//
//   - POST /v1/analyze   — run (or reuse) the symbolic analysis of a
//     matrix pattern; cached in a bounded LRU keyed by pattern hash.
//   - POST /v1/factorize — numeric factorization against the cached
//     Symbolic, climbing a recovery ladder (fail → perturb →
//     equilibrate+perturb) with every rung recorded in the response.
//   - POST /v1/solve     — solves against a stored factorization, each
//     request on its own goroutine under its own deadline and through
//     one core.SolveManyWith call, which sweeps up to two right-hand
//     sides as vectors and more as one blocked BLAS-3 panel, so a
//     {"b": v} and a {"bs": [v]} request get the same bits.
//   - GET /healthz, /readyz, /metrics — liveness, readiness (503 while
//     draining) and a JSON counter document.
//
// Error taxonomy → status mapping (the luerr classes):
//
//	400 malformed request (JSON, shape, indices, unknown policy)
//	404 unknown factorization id
//	413 matrix exceeds the memory budget or body limit
//	422 luerr.ErrSingular, luerr.ErrNonFinite — well-formed input the
//	    numeric pipeline cannot factor; recovery rungs attached
//	429 shed by admission control; jittered Retry-After attached
//	499 luerr.ErrCanceled — client disconnected mid-request
//	500 internal failure (including recovered handler panics)
//	503 server draining
//	504 luerr.ErrDeadline — per-request deadline expired
//
// Every request is admitted through a bounded queue, bounded in time
// by a deadline on the HTTP request context (core.NumericOptions
// carries that context into the numeric kernels and the solves), and
// isolated: a panic in one request's handler is recovered, counted and
// answered with 500 without taking the process down.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/luerr"
	"repro/internal/sparse"
)

// Config tunes the service. The zero value is usable: every field has
// a production default applied by New.
type Config struct {
	// CacheEntries bounds the symbolic LRU (default 32 patterns).
	CacheEntries int
	// StoreEntries bounds the factorization store (default 64).
	StoreEntries int
	// MaxInFlight is the number of concurrently computing requests
	// (default GOMAXPROCS).
	MaxInFlight int
	// MaxQueue is the number of requests allowed to wait for a compute
	// slot before admission sheds with 429 (default 4×MaxInFlight).
	MaxQueue int
	// MemoryBudget caps the approximate retained bytes of stored
	// factorizations (default 2 GiB). Exceeding it evicts LRU handles;
	// a single factorization larger than the budget is refused with 413.
	MemoryBudget int64
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// DefaultDeadline bounds requests that do not set timeout_ms
	// (default 30s); MaxDeadline caps what timeout_ms may ask for
	// (default 2m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Workers sizes the numeric factorization's parallelism per request
	// (default GOMAXPROCS capped at 8). Solves run serial sweeps: the
	// service gets their parallelism from concurrent requests.
	Workers int
	// Seed drives the jittered Retry-After; fixed so chaos runs replay.
	Seed int64
	// Faults optionally injects deterministic request-level faults
	// (see faultinject.RequestPlan); nil in production.
	Faults *faultinject.RequestPlan
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 32
	}
	if c.StoreEntries <= 0 {
		c.StoreEntries = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 2 << 30
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = min(runtime.GOMAXPROCS(0), 8)
	}
	return c
}

// handle is one stored factorization: the immutable Symbolic it was
// built on (shared with the cache), the numeric factors, the matrix
// (kept for residuals and refinement).
type handle struct {
	id       string
	sym      *core.Symbolic
	m        *sparse.CSC
	anorm    float64 // ‖m‖∞, for the residual of every solve
	res      *ladderResult
	bytes    int64
	lastUsed int64 // LRU clock tick; guarded by Server.mu
}

// Server is the HTTP core. Create with New, mount via Handler, stop
// with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *symCache
	adm   *admission
	met   *metrics

	mu          sync.Mutex
	store       map[string]*handle
	storeBytes  int64
	clock       int64
	nextID      atomic.Int64
	draining    atomic.Bool
	evictions   atomic.Int64
	analysisOpt *core.Options
}

// New builds a server with cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	opts := core.DefaultOptions()
	opts.Workers = cfg.Workers
	s := &Server{
		cfg:         cfg,
		cache:       newSymCache(cfg.CacheEntries),
		adm:         newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.Seed),
		met:         newMetrics(time.Now()),
		store:       make(map[string]*handle),
		analysisOpt: opts,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.wrap(epAnalyze, s.handleAnalyze))
	mux.HandleFunc("POST /v1/factorize", s.wrap(epFactorize, s.handleFactorize))
	mux.HandleFunc("POST /v1/solve", s.wrap(epSolve, s.handleSolve))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: readiness flips to 503 and new compute
// requests are refused; requests already past the drain check finish
// under their own deadlines (http.Server.Shutdown waits for them). Safe
// to call more than once.
func (s *Server) Close() { s.draining.Store(true) }

// ---- wire types ----

type matrixJSON struct {
	N    int       `json:"n"`
	Rows []int     `json:"rows"`
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

type analyzeRequest struct {
	Matrix    matrixJSON `json:"matrix"`
	TimeoutMS int64      `json:"timeout_ms"`
}

type statsJSON struct {
	N          int     `json:"n"`
	NNZA       int     `json:"nnz_a"`
	NNZFactors int     `json:"nnz_factors"`
	FillRatio  float64 `json:"fill_ratio"`
	Supernodes int     `json:"supernodes"`
	Blocks     int     `json:"blocks"`
	Tasks      int     `json:"tasks"`
}

type analyzeResponse struct {
	Key    string    `json:"key"`
	Cached bool      `json:"cached"`
	Stats  statsJSON `json:"stats"`
}

type factorizeRequest struct {
	Matrix    matrixJSON `json:"matrix"`
	Policy    string     `json:"policy"` // "", "ladder", "fail", "perturb"
	TimeoutMS int64      `json:"timeout_ms"`
}

type factorizeResponse struct {
	FID            string       `json:"fid"`
	Key            string       `json:"key"`
	SymbolicCached bool         `json:"symbolic_cached"`
	Rungs          []RungReport `json:"rungs"`
	Rung           string       `json:"rung"`
	Refine         bool         `json:"refine"`
	Perturbations  int          `json:"perturbations"`
}

type solveRequest struct {
	FID       string      `json:"fid"`
	B         []float64   `json:"b,omitempty"`
	BS        [][]float64 `json:"bs,omitempty"`
	Refine    bool        `json:"refine,omitempty"`
	TimeoutMS int64       `json:"timeout_ms"`
}

type solveResponse struct {
	X           []float64   `json:"x,omitempty"`
	XS          [][]float64 `json:"xs,omitempty"`
	Residual    float64     `json:"residual,omitempty"`
	Residuals   []float64   `json:"residuals,omitempty"`
	RefineSteps int         `json:"refine_steps,omitempty"`
	Rung        string      `json:"rung"`
}

type errorResponse struct {
	Error      string       `json:"error"`
	Code       string       `json:"code"`
	Rungs      []RungReport `json:"rungs,omitempty"`
	RetryAfter int          `json:"retry_after_secs,omitempty"`
}

// httpError is a handler failure with its transport mapping attached.
type httpError struct {
	status     int
	code       string
	msg        string
	rungs      []RungReport
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: "bad_request", msg: fmt.Sprintf(format, args...)}
}

// statusClientClosedRequest is nginx's conventional code for "client
// went away"; Go has no named constant for it.
const statusClientClosedRequest = 499

// mapError translates the unified error taxonomy into transport terms.
// Order matters: the deadline class is checked before the general
// cancellation class (a deadline-canceled execution matches both, and
// 504 is the more specific answer). A failing task stops only its own
// execution, so a poisoned factorization surfaces as the failing task's
// *sched.TaskError, never as a cancellation.
func (s *Server) mapError(err error) *httpError {
	var he *httpError
	if errors.As(err, &he) {
		return he
	}
	switch {
	case errors.Is(err, luerr.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		s.met.deadline.Add(1)
		return &httpError{status: http.StatusGatewayTimeout, code: "deadline", msg: err.Error()}
	case errors.Is(err, luerr.ErrSingular):
		s.met.singular.Add(1)
		return &httpError{status: http.StatusUnprocessableEntity, code: "singular", msg: err.Error()}
	case errors.Is(err, luerr.ErrNonFinite):
		s.met.nonFinite.Add(1)
		return &httpError{status: http.StatusUnprocessableEntity, code: "non_finite", msg: err.Error()}
	case errors.Is(err, luerr.ErrCanceled) || errors.Is(err, context.Canceled):
		s.met.canceled.Add(1)
		return &httpError{status: statusClientClosedRequest, code: "canceled", msg: err.Error()}
	case errors.Is(err, errShed):
		s.met.shed.Add(1)
		return &httpError{status: http.StatusTooManyRequests, code: "shed", msg: err.Error(), retryAfter: s.adm.retryAfterSecs()}
	}
	return &httpError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}
}

// writeJSON sends v as json.Encoder would. The body is encoded before
// the status goes out, so a value JSON cannot hold — a NaN or Inf — is
// answered 422 non_finite instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusUnprocessableEntity
		body, _ = json.Marshal(errorResponse{Error: "server: reply is not representable in JSON: " + err.Error(), Code: "non_finite"})
	}
	writeBody(w, status, append(body, '\n'))
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Best effort: the client may already be gone on 499.
	_, _ = w.Write(body)
}

func (s *Server) writeError(w http.ResponseWriter, he *httpError) {
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", he.retryAfter))
	}
	writeJSON(w, he.status, errorResponse{Error: he.msg, Code: he.code, Rungs: he.rungs, RetryAfter: he.retryAfter})
}

// ---- request plumbing ----

// wrap is the middleware chain of the compute endpoints: panic
// isolation, drain check, deterministic fault injection, latency
// metrics, admission control and the MaxDeadline backstop context.
func (s *Server) wrap(ep endpoint, h func(w http.ResponseWriter, r *http.Request, fault faultinject.Fault) *httpError) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight.Add(1)
		failed := false
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				failed = true
				s.writeError(w, &httpError{
					status: http.StatusInternalServerError,
					code:   "internal",
					msg:    fmt.Sprintf("server: request panicked: %v", p),
				})
			}
			s.met.inflight.Add(-1)
			s.met.endpoints[ep].observe(time.Since(start), failed)
		}()
		if s.draining.Load() {
			failed = true
			s.writeError(w, &httpError{status: http.StatusServiceUnavailable, code: "draining", msg: "server: draining"})
			return
		}
		seq, fault := s.cfg.Faults.Claim()
		if fault.Mode != faultinject.None {
			s.met.faults.Add(1)
		}
		switch fault.Mode {
		case faultinject.Panic:
			panic(fmt.Sprintf("server: injected fault on request %d: %v", seq, faultinject.ErrInjected))
		case faultinject.Error:
			failed = true
			s.writeError(w, &httpError{
				status: http.StatusInternalServerError,
				code:   "internal",
				msg:    fmt.Sprintf("server: injected fault on request %d: %v", seq, faultinject.ErrInjected),
			})
			return
		case faultinject.Delay:
			time.Sleep(fault.Sleep)
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxDeadline)
		defer cancel()
		release, err := s.adm.acquire(ctx)
		if err != nil {
			failed = true
			s.writeError(w, s.mapError(err))
			return
		}
		defer release()
		if he := h(w, r.WithContext(ctx), fault); he != nil {
			failed = true
			s.writeError(w, he)
		}
	}
}

// deadlineCtx tightens the backstop context to the request's own
// deadline (timeout_ms, capped at MaxDeadline; DefaultDeadline when
// unset). Its cause tells deadline expiry (core.ErrDeadlineExceeded,
// or the backstop's context.DeadlineExceeded) from client disconnect
// (context.Canceled), which is what keeps 504 and 499 apart.
func (s *Server) deadlineCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if timeoutMS > 0 {
		// Compare in milliseconds: the product of a huge timeout_ms
		// overflows time.Duration and would wrap to a negative deadline.
		d = s.cfg.MaxDeadline
		if timeoutMS <= d.Milliseconds() {
			d = time.Duration(timeoutMS) * time.Millisecond
		}
	}
	return context.WithTimeoutCause(r.Context(), d, core.ErrDeadlineExceeded)
}

// numOpts is the per-request numeric state handed to the core layer.
func (s *Server) numOpts(ctx context.Context) core.NumericOptions {
	return core.NumericOptions{
		Workers: s.cfg.Workers,
		Context: ctx,
	}
}

// parseMatrix validates and assembles a triplet payload for mapError.
// Out-of-range indices are a 400 here, not a panic in
// sparse.Triplet.Add. A matrix of order n with fewer than n entries has
// an empty column: it is reported structurally singular before the
// triplet is built, so a huge declared order never sizes an allocation.
func parseMatrix(mj *matrixJSON, fault faultinject.Fault) (*sparse.CSC, error) {
	if mj.N <= 0 {
		return nil, badRequest("server: matrix order must be positive, got %d", mj.N)
	}
	if len(mj.Rows) != len(mj.Cols) || len(mj.Rows) != len(mj.Vals) {
		return nil, badRequest("server: rows/cols/vals lengths differ: %d/%d/%d", len(mj.Rows), len(mj.Cols), len(mj.Vals))
	}
	if len(mj.Rows) == 0 {
		return nil, badRequest("server: matrix has no entries")
	}
	for k := range mj.Rows {
		if i, j := mj.Rows[k], mj.Cols[k]; i < 0 || i >= mj.N || j < 0 || j >= mj.N {
			return nil, badRequest("server: entry %d at (%d,%d) outside %d×%d", k, i, j, mj.N, mj.N)
		}
	}
	if mj.N > len(mj.Rows) {
		return nil, fmt.Errorf("server: order %d with %d entries leaves a column empty: %w", mj.N, len(mj.Rows), core.ErrStructurallySingular)
	}
	if fault.Mode == faultinject.PoisonNaN {
		// Deterministic input corruption: the numeric layer's
		// non-finite guards must catch it and answer 422.
		mj.Vals[0] = math.NaN()
	}
	t := sparse.NewTriplet(mj.N, mj.N)
	for k := range mj.Rows {
		t.Add(mj.Rows[k], mj.Cols[k], mj.Vals[k])
	}
	return t.ToCSC(), nil
}

// decodeBody reads the request body and decodes it into a request
// through the request's field decoder (codec.go).
func decodeBody(r *http.Request, fields func(d *decoder, key []byte) error) *httpError {
	buf := getBuf()
	defer putBuf(buf)
	if err := readBody(r, buf); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				msg: fmt.Sprintf("server: request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("server: reading request body: %v", err)
	}
	if err := decodeRequest(*buf, fields); err != nil {
		return badRequest("server: bad request body: %v", err)
	}
	return nil
}

// ---- handlers ----

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, fault faultinject.Fault) *httpError {
	var req analyzeRequest
	if he := decodeBody(r, req.field); he != nil {
		return he
	}
	m, err := parseMatrix(&req.Matrix, fault)
	if err != nil {
		return s.mapError(err)
	}
	ctx, stop := s.deadlineCtx(r, req.TimeoutMS)
	defer stop()
	key := patternKey(m, s.analysisOpt)
	sym, hit, err := s.cache.getOrAnalyze(ctx, key, func() (*core.Symbolic, error) {
		return core.Analyze(m, s.analysisOpt)
	})
	if err != nil {
		return s.mapError(err)
	}
	st := sym.Stats
	writeJSON(w, http.StatusOK, analyzeResponse{
		Key:    key,
		Cached: hit,
		Stats: statsJSON{
			N: st.N, NNZA: st.NNZA, NNZFactors: st.NNZFactors,
			FillRatio: st.FillRatio, Supernodes: st.Supernodes,
			Blocks: st.Blocks, Tasks: st.TaskCount,
		},
	})
	return nil
}

func (s *Server) handleFactorize(w http.ResponseWriter, r *http.Request, fault faultinject.Fault) *httpError {
	var req factorizeRequest
	if he := decodeBody(r, req.field); he != nil {
		return he
	}
	if _, err := rungsFor(req.Policy); err != nil {
		return badRequest("%v", err)
	}
	m, err := parseMatrix(&req.Matrix, fault)
	if err != nil {
		return s.mapError(err)
	}
	ctx, stop := s.deadlineCtx(r, req.TimeoutMS)
	defer stop()
	key := patternKey(m, s.analysisOpt)
	sym, hit, err := s.cache.getOrAnalyze(ctx, key, func() (*core.Symbolic, error) {
		return core.Analyze(m, s.analysisOpt)
	})
	if err != nil {
		return s.mapError(err)
	}
	// The handle's size depends on nothing the ladder makes, so a
	// factorization that could never be stored is refused before any runs.
	size := factorBytes(sym) + int64(m.ColPtr[m.NCols])*16 + int64(m.NCols)*64
	if size > s.cfg.MemoryBudget {
		return &httpError{status: http.StatusRequestEntityTooLarge, code: "too_large",
			msg: fmt.Sprintf("server: factorization needs ~%d bytes, budget is %d", size, s.cfg.MemoryBudget)}
	}
	res, err := climbLadder(sym, m, s.numOpts(ctx), req.Policy)
	if err != nil {
		mapped := s.mapError(err)
		if res != nil {
			mapped.rungs = res.rungs
		}
		return mapped
	}
	s.met.rungWins[res.won].Add(1)

	h := &handle{
		id:    fmt.Sprintf("f%d", s.nextID.Add(1)),
		sym:   sym,
		m:     m,
		anorm: m.NormInf(),
		res:   res,
		bytes: size,
	}
	s.storeInsert(h)
	writeJSON(w, http.StatusOK, factorizeResponse{
		FID:            h.id,
		Key:            key,
		SymbolicCached: hit,
		Rungs:          res.rungs,
		Rung:           res.won.String(),
		Refine:         res.refine,
		Perturbations:  res.f.PivotPerturbations(),
	})
	return nil
}

// storeInsert adds h and evicts least-recently-used handles until both
// the entry cap and the memory budget hold. A solve already running on
// an evicted handle finishes on the factorization it holds.
func (s *Server) storeInsert(h *handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	h.lastUsed = s.clock
	s.store[h.id] = h
	s.storeBytes += h.bytes
	for (len(s.store) > s.cfg.StoreEntries || s.storeBytes > s.cfg.MemoryBudget) && len(s.store) > 1 {
		var victim *handle
		for _, cand := range s.store {
			if cand != h && (victim == nil || cand.lastUsed < victim.lastUsed) {
				victim = cand
			}
		}
		if victim == nil {
			break
		}
		delete(s.store, victim.id)
		s.storeBytes -= victim.bytes
		s.evictions.Add(1)
	}
}

// lookup fetches a handle and touches its LRU slot.
func (s *Server) lookup(fid string) (*handle, *httpError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.store[fid]
	if !ok {
		return nil, &httpError{status: http.StatusNotFound, code: "not_found",
			msg: fmt.Sprintf("server: unknown factorization %q", fid)}
	}
	s.clock++
	h.lastUsed = s.clock
	return h, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, fault faultinject.Fault) *httpError {
	var req solveRequest
	if he := decodeBody(r, req.field); he != nil {
		return he
	}
	h, he := s.lookup(req.FID)
	if he != nil {
		return he
	}
	n := h.sym.N
	single := req.B != nil
	if single == (len(req.BS) > 0) {
		return badRequest("server: exactly one of b and bs must be set")
	}
	bs := req.BS
	if single {
		bs = [][]float64{req.B}
	}
	for i, b := range bs {
		if len(b) != n {
			return badRequest("server: rhs %d has length %d, want %d", i, len(b), n)
		}
	}
	if fault.Mode == faultinject.PoisonNaN {
		bs[0][0] = math.NaN()
	}
	ctx, stop := s.deadlineCtx(r, req.TimeoutMS)
	defer stop()
	nopts := s.numOpts(ctx)

	resp := solveResponse{Rung: h.res.won.String()}
	var xs [][]float64
	residuals := make([]float64, len(bs))
	if h.res.refine || req.Refine {
		// Each right-hand side runs its own solve+refine loop against
		// the stored matrix and reports the achieved backward error.
		xs = make([][]float64, len(bs))
		for i, b := range bs {
			x, berr, st, err := h.res.f.SolveRefinedWith(h.m, h.anorm, b, 20, 1e-11, &nopts)
			if err != nil {
				return s.mapError(err)
			}
			xs[i], residuals[i] = x, berr
			resp.RefineSteps = max(resp.RefineSteps, st)
		}
		s.met.refined.Add(int64(len(bs)))
	} else {
		// One call for b and bs: the library picks the vector or the
		// panel sweeps from the count, so {"b": v} and {"bs": [v]} get
		// the same bits.
		s.met.countSolve(len(bs))
		var err error
		if xs, err = h.res.f.SolveManyWith(bs, &nopts); err != nil {
			return s.mapError(err)
		}
		r := make([]float64, n)
		for i, x := range xs {
			residuals[i] = core.ResidualWith(h.m, x, bs[i], r, h.anorm)
		}
	}
	if single {
		resp.X, resp.Residual = xs[0], residuals[0]
	} else {
		resp.XS, resp.Residuals = xs, residuals
	}
	return s.writeSolve(w, &resp)
}

// writeSolve sends a solve reply. A NaN or Inf anywhere in it — a
// poisoned right-hand side, or a residual that overflowed — is the
// non-finite class: the factors are finite by construction, so the
// answer is 422, not a silently wrong vector.
func (s *Server) writeSolve(w http.ResponseWriter, resp *solveResponse) *httpError {
	buf := getBuf()
	defer putBuf(buf)
	body, err := encodeSolve(*buf, resp)
	*buf = body
	if err != nil {
		return s.mapError(err)
	}
	writeBody(w, http.StatusOK, append(body, '\n'))
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.met.snapshot(time.Now())
	snap.Cache = s.cache.snapshot()
	snap.Admission = s.adm.snapshot()
	s.mu.Lock()
	snap.Store = storeSnapshot{
		Entries:   len(s.store),
		Capacity:  s.cfg.StoreEntries,
		Bytes:     s.storeBytes,
		Budget:    s.cfg.MemoryBudget,
		Evictions: s.evictions.Load(),
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

// storeSnapshot is the wire form of the factorization store counters.
type storeSnapshot struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Bytes     int64 `json:"approx_bytes"`
	Budget    int64 `json:"budget_bytes"`
	Evictions int64 `json:"evictions"`
}
