package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	sparselu "repro"
	"repro/internal/server"
)

// service is the in-process solve service under test, reached over
// real loopback TCP, and one keep-alive connection per client.
type service struct {
	srv     *server.Server
	ts      *httptest.Server
	clients []*http.Client
	sent    int64 // request bytes, for server.request_mb
}

// startService starts the server with its defaults but for the
// factorization store: every factorize request adds a handle (on
// sherman3 some 90 MB) and no request removes one, so under the default
// 64 entries the live heap would grow all run long and each round would
// be slower than the one before. One handle per client is the store's
// steady state: every factorize request evicts the handle of that
// client's previous cycle, which nobody solves against any more.
func startService(clients int) *service {
	s := &service{srv: server.New(server.Config{StoreEntries: clients})}
	s.ts = httptest.NewServer(s.srv.Handler())
	for c := 0; c < clients; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return s
}

func (s *service) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.ts.Close()
	s.srv.Close()
}

type factorizeReply struct {
	FID string `json:"fid"`
}

type solveReply struct {
	X         []float64   `json:"x"`
	XS        [][]float64 `json:"xs"`
	Residual  float64     `json:"residual"`
	Residuals []float64   `json:"residuals"`
}

// post sends one request and returns the client-side latency — from
// the send to the last byte of the reply — and the decoded reply.
// Decoding happens after the clock stops: it is the client's cost.
func (s *service) post(client int, path string, body []byte, reply any) (time.Duration, error) {
	start := time.Now()
	resp, err := s.clients[client].Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	return lat, json.Unmarshal(raw, reply)
}

// solveBody splices a factorization id into a pre-encoded right-hand
// side (key "b") or 16-RHS panel (key "bs").
func solveBody(fid, key string, rhs []byte, refine bool) []byte {
	b := make([]byte, 0, len(rhs)+64)
	b = append(b, `{"fid":"`...)
	b = append(b, fid...)
	b = append(b, `","`...)
	b = append(b, key...)
	b = append(b, `":`...)
	b = append(b, rhs...)
	if refine {
		b = append(b, `,"refine":true`...)
	}
	return append(b, '}')
}

// sliceResult is what one round's share of the request script yields.
type sliceResult struct {
	elapsed   time.Duration
	requests  int
	factorize []float64 // latencies, ms
	solve     []float64
}

// runSlice plays round r's part of the request script: every client
// runs its cycles, each one factorize request and then the workload's
// solve requests, closed loop (the next request leaves when the reply
// is in). The clients start a slice together and then run free, so one
// client's solves overlap another's factorization whenever their cycles
// drift apart. Only a shared handle makes a client wait for another:
// nobody can solve against the owner's factorization before the owner
// has its id. In the traced round every request is a span of its own.
func (e *env) runSlice(r int, t *tally) sliceResult {
	w, in, svc := e.w, e.in, e.svc
	nc := len(svc.clients)
	var res sliceResult
	var mu sync.Mutex
	record := func(lat time.Duration, dst *[]float64, bytes int) {
		mu.Lock()
		*dst = append(*dst, float64(lat)/float64(time.Millisecond))
		res.requests++
		svc.sent += int64(bytes)
		mu.Unlock()
	}
	spanned := func(name string, c int, f func()) {
		if e.spans == nil {
			f()
			return
		}
		e.spans.in(fmt.Sprintf("%s[client %d]", name, c), e.phase, func(int) { f() })
	}
	// owned[k] is closed once client 0 knows its handle of cycle k, which
	// is then in ownerFID[k] ("" when the request failed).
	owned := make([]chan struct{}, w.cycles)
	ownerFID := make([]string, w.cycles)
	for k := range owned {
		owned[k] = make(chan struct{})
	}

	client := func(c int) {
		for k := 0; k < w.cycles; k++ {
			cyc := in.cycles[r][c][k]
			var frep factorizeReply
			var lat time.Duration
			var err error
			spanned("http.factorize", c, func() { lat, err = svc.post(c, "/v1/factorize", cyc.body, &frep) })
			record(lat, &res.factorize, len(cyc.body))
			if !t.op(err) {
				frep.FID = ""
			}
			fid, m := frep.FID, cyc.m
			if c == 0 {
				ownerFID[k] = fid
				close(owned[k])
			} else if w.sharedFID {
				<-owned[k]
				fid, m = ownerFID[k], in.cycles[r][0][k].m
			}
			if fid == "" {
				continue // the factorize failure is already counted
			}
			for q := 1; q <= w.solves; q++ {
				many := w.manyEvery > 0 && q%w.manyEvery == 0
				refine := !many && w.refineEvery > 0 && q%w.refineEvery == 0
				pick := (c*w.solves + q) % len(in.rhs)
				var body []byte
				if many {
					body = solveBody(fid, "bs", in.manyJSON, false)
				} else {
					body = solveBody(fid, "b", in.rhsJSON[pick], refine)
				}
				var rep solveReply
				spanned("http.solve", c, func() { lat, err = svc.post(c, "/v1/solve", body, &rep) })
				record(lat, &res.solve, len(body))
				if !t.op(err) {
					continue
				}
				if many {
					t.checkReply(m, rep.XS, in.rhs, rep.Residuals)
				} else {
					t.checkReply(m, [][]float64{rep.X}, [][]float64{in.rhs[pick]}, []float64{rep.Residual})
				}
			}
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client(c)
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// checkReply counts one solve reply: it fails when the shape is wrong,
// when a residual the server reports exceeds the tolerance, or when a
// solution does not solve the system the client sent.
func (t *tally) checkReply(m *sparselu.Matrix, xs, bs [][]float64, reported []float64) {
	ok := len(xs) == len(bs) && len(reported) == len(bs)
	for _, r := range reported {
		ok = ok && r <= residualTol
	}
	for i := 0; ok && i < len(xs); i++ {
		ok = solves(m, xs[i], bs[i])
	}
	t.count(ok)
}

// serverCounters is the part of GET /metrics the per-layer report uses.
type serverCounters struct {
	Shed  int64 `json:"shed"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"symbolic_cache"`
	Batcher struct {
		Batches int64 `json:"batches"`
		RHS     int64 `json:"batched_rhs"`
	} `json:"batcher"`
}

func (s *service) counters() (serverCounters, error) {
	var c serverCounters
	resp, err := s.clients[0].Get(s.ts.URL + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// minus returns the counters' movement since an earlier reading. The
// batcher's counters are left as read: the server sums them over the
// handles now in the store, which are the last cycles' only.
func (c serverCounters) minus(earlier serverCounters) serverCounters {
	c.Shed -= earlier.Shed
	c.Cache.Hits -= earlier.Cache.Hits
	c.Cache.Misses -= earlier.Cache.Misses
	return c
}
