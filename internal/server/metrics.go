package server

import (
	"sync/atomic"
	"time"
)

// endpoint indexes the per-endpoint counters of the metrics block.
type endpoint int

const (
	epAnalyze endpoint = iota
	epFactorize
	epSolve
	numEndpoints
)

func (e endpoint) String() string {
	switch e {
	case epAnalyze:
		return "analyze"
	case epFactorize:
		return "factorize"
	case epSolve:
		return "solve"
	}
	return "unknown"
}

// endpointMetrics aggregates one endpoint's request stream: counts,
// failures and a latency summary (sum + max, enough for mean/worst
// dashboards without histogram buckets).
type endpointMetrics struct {
	count  atomic.Int64
	errors atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// observe folds one finished request into the summary.
func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	ns := d.Nanoseconds()
	m.count.Add(1)
	if failed {
		m.errors.Add(1)
	}
	m.sumNs.Add(ns)
	for {
		cur := m.maxNs.Load()
		if ns <= cur || m.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// metrics is the service-wide counter block. Every field is an atomic
// touched on the request path; the snapshot marshals to the /metrics
// JSON document. There is no locking and no allocation on the hot
// path.
type metrics struct {
	start time.Time

	endpoints [numEndpoints]endpointMetrics

	inflight atomic.Int64
	panics   atomic.Int64
	shed     atomic.Int64
	faults   atomic.Int64

	// Failure classes of the unified error taxonomy, as mapped to
	// responses (see mapError).
	singular  atomic.Int64
	nonFinite atomic.Int64
	deadline  atomic.Int64
	canceled  atomic.Int64

	// Recovery-ladder outcomes: index = rung that finally produced the
	// factorization (see recovery.go), plus solves that went through
	// iterative refinement.
	rungWins [numRungs]atomic.Int64
	refined  atomic.Int64

	// Unrefined solve calls (one per b or bs request) and the
	// right-hand sides they carried.
	solveCalls atomic.Int64
	solveRHS   atomic.Int64
}

func newMetrics(now time.Time) *metrics {
	return &metrics{start: now}
}

// countSolve records one unrefined solve call of nrhs right-hand sides.
func (m *metrics) countSolve(nrhs int) {
	m.solveCalls.Add(1)
	m.solveRHS.Add(int64(nrhs))
}

// endpointSnapshot is the wire form of one endpoint summary.
type endpointSnapshot struct {
	Count     int64   `json:"count"`
	Errors    int64   `json:"errors"`
	MeanMs    float64 `json:"mean_ms"`
	MaxMs     float64 `json:"max_ms"`
	TotalSecs float64 `json:"total_secs"`
}

// solveCallsSnapshot counts the unrefined solve calls and their
// right-hand sides. It keeps the wire names of the solve batcher it
// replaced ("batcher", "batches", "batched_rhs"), which benchmark
// reports read as right-hand sides per solve call.
type solveCallsSnapshot struct {
	Calls int64 `json:"batches"`
	RHS   int64 `json:"batched_rhs"`
}

// metricsSnapshot is the /metrics JSON document. Cache, admission and
// store blocks are filled in by the server from their owners.
type metricsSnapshot struct {
	UptimeSecs float64 `json:"uptime_secs"`
	InFlight   int64   `json:"in_flight"`

	Analyze   endpointSnapshot `json:"analyze"`
	Factorize endpointSnapshot `json:"factorize"`
	Solve     endpointSnapshot `json:"solve"`

	Panics         int64 `json:"panics_recovered"`
	Shed           int64 `json:"shed"`
	FaultsInjected int64 `json:"faults_injected"`

	Singular  int64 `json:"err_singular"`
	NonFinite int64 `json:"err_non_finite"`
	Deadline  int64 `json:"err_deadline"`
	Canceled  int64 `json:"err_canceled"`

	RungFail        int64 `json:"rung_fail_wins"`
	RungPerturb     int64 `json:"rung_perturb_wins"`
	RungEquilibrate int64 `json:"rung_equilibrate_wins"`
	RefinedSolves   int64 `json:"refined_solves"`

	Cache      cacheSnapshot      `json:"symbolic_cache"`
	Admission  admissionSnapshot  `json:"admission"`
	SolveCalls solveCallsSnapshot `json:"batcher"`
	Store      storeSnapshot      `json:"store"`
}

func (m *metrics) snapshotEndpoint(e endpoint) endpointSnapshot {
	em := &m.endpoints[e]
	count := em.count.Load()
	sum := em.sumNs.Load()
	snap := endpointSnapshot{
		Count:     count,
		Errors:    em.errors.Load(),
		MaxMs:     float64(em.maxNs.Load()) / 1e6,
		TotalSecs: float64(sum) / 1e9,
	}
	if count > 0 {
		snap.MeanMs = float64(sum) / float64(count) / 1e6
	}
	return snap
}

func (m *metrics) snapshot(now time.Time) metricsSnapshot {
	return metricsSnapshot{
		UptimeSecs:      now.Sub(m.start).Seconds(),
		InFlight:        m.inflight.Load(),
		Analyze:         m.snapshotEndpoint(epAnalyze),
		Factorize:       m.snapshotEndpoint(epFactorize),
		Solve:           m.snapshotEndpoint(epSolve),
		Panics:          m.panics.Load(),
		Shed:            m.shed.Load(),
		FaultsInjected:  m.faults.Load(),
		Singular:        m.singular.Load(),
		NonFinite:       m.nonFinite.Load(),
		Deadline:        m.deadline.Load(),
		Canceled:        m.canceled.Load(),
		RungFail:        m.rungWins[rungFail].Load(),
		RungPerturb:     m.rungWins[rungPerturb].Load(),
		RungEquilibrate: m.rungWins[rungEquilibrate].Load(),
		RefinedSolves:   m.refined.Load(),
		SolveCalls:      solveCallsSnapshot{Calls: m.solveCalls.Load(), RHS: m.solveRHS.Load()},
	}
}
