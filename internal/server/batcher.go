package server

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sched"
)

// errBatcherClosed marks a solve submitted to a draining handle; the
// transport maps it to 503.
var errBatcherClosed = errors.New("server: factorization is shutting down")

// solveReq is one single-RHS solve, queued or riding in a batch.
type solveReq struct {
	b     []float64
	done  chan solveDone // buffered 1: the runner never blocks on a waiter
	batch *batch         // set when the request leaves the queue; guarded by batcher.mu
}

type solveDone struct {
	x   []float64
	err error
}

// batch is the shared fate of the requests one SolveManyWith answers:
// the sweeps poll cancel, which trips when the last of them has left.
type batch struct {
	live   int // requests still waiting; guarded by batcher.mu
	cancel sched.Canceler
}

// batcher coalesces concurrent single-RHS solves against one
// factorization into blocked multi-RHS solves on the BLAS-3 panel path
// (SolveManyWith: Dtrsm/Dgemm instead of nrhs× Dtrsv/Dgemv). There is no
// batch window: a request that finds the batcher idle starts a batch of
// one at once, and the requests that arrive while a batch runs form the
// next one, up to max, which the finishing batch starts. Requests that
// arrive alone still run through the panel path with nrhs=1, which is
// what makes batching invisible: the panel sweeps are per-RHS bitwise
// identical at every batch size (pinned by TestBatchedSolveBitwise), so
// a client cannot tell whether its solve shared a panel.
type batcher struct {
	f     *core.Factorization
	max   int
	nopts core.NumericOptions // per-batch solve options

	mu      sync.Mutex
	pending []*solveReq
	running bool // a batch is in flight; whenever pending is non-empty, so is one
	closed  bool

	batches  atomic.Int64
	rhs      atomic.Int64
	maxBatch atomic.Int64
}

func newBatcher(f *core.Factorization, maxRHS int, nopts core.NumericOptions) *batcher {
	return &batcher{f: f, max: max(maxRHS, 1), nopts: nopts}
}

// submit queues b and waits for its solution. The caller's context
// bounds only the wait: an expired waiter leaves at once with the
// context cause, dropping its queue slot or, once its batch runs,
// canceling that batch if it was the last one waiting.
func (bt *batcher) submit(ctx context.Context, b []float64) ([]float64, error) {
	req := &solveReq{b: b, done: make(chan solveDone, 1)}
	bt.mu.Lock()
	if bt.closed {
		bt.mu.Unlock()
		return nil, errBatcherClosed
	}
	bt.pending = append(bt.pending, req)
	var reqs []*solveReq
	var bat *batch
	if !bt.running {
		bt.running = true
		reqs, bat = bt.takeLocked()
	}
	bt.mu.Unlock()
	if bat != nil {
		bt.start(reqs, bat)
	}
	select {
	case d := <-req.done:
		return d.x, d.err
	case <-ctx.Done():
		bt.abandon(req)
		return nil, context.Cause(ctx)
	}
}

// takeLocked detaches the next batch of up to max pending requests.
// Caller holds mu.
func (bt *batcher) takeLocked() ([]*solveReq, *batch) {
	n := min(len(bt.pending), bt.max)
	reqs := bt.pending[:n:n]
	bt.pending = bt.pending[n:]
	bat := &batch{live: n}
	for _, req := range reqs {
		req.batch = bat
	}
	return reqs, bat
}

// abandon withdraws a waiter whose context ended.
func (bt *batcher) abandon(req *solveReq) {
	bt.mu.Lock()
	bat := req.batch
	if bat == nil {
		if i := slices.Index(bt.pending, req); i >= 0 {
			bt.pending = slices.Delete(bt.pending, i, i+1)
		}
		bt.mu.Unlock()
		return
	}
	bat.live--
	last := bat.live == 0
	bt.mu.Unlock()
	if last {
		bat.cancel.Cancel(nil)
	}
}

// start runs a batch on a goroutine of its own, under the batch's
// canceler.
func (bt *batcher) start(reqs []*solveReq, bat *batch) {
	go bt.run(reqs, &bat.cancel)
}

// run executes one batch on the panel path, distributes the results,
// then hands the requests that queued meanwhile to the next batch.
func (bt *batcher) run(reqs []*solveReq, cancel *sched.Canceler) {
	bt.batches.Add(1)
	bt.rhs.Add(int64(len(reqs)))
	for {
		cur := bt.maxBatch.Load()
		if int64(len(reqs)) <= cur || bt.maxBatch.CompareAndSwap(cur, int64(len(reqs))) {
			break
		}
	}
	bs := make([][]float64, len(reqs))
	for i, req := range reqs {
		bs[i] = req.b
	}
	nopts := bt.nopts
	nopts.Cancel = cancel
	xs, err := bt.f.SolveManyWith(bs, &nopts)
	for i, req := range reqs {
		if err != nil {
			req.done <- solveDone{err: err}
			continue
		}
		req.done <- solveDone{x: xs[i]}
	}
	bt.next()
}

// next ends a batch: the requests that queued while it ran become the
// next batch, or the batcher goes idle.
func (bt *batcher) next() {
	bt.mu.Lock()
	if len(bt.pending) == 0 {
		bt.running = false
		bt.mu.Unlock()
		return
	}
	reqs, bat := bt.takeLocked()
	bt.mu.Unlock()
	bt.start(reqs, bat)
}

// close drains the batcher: later submissions are refused, and the
// requests already queued are still answered by the batches the running
// one starts. Called on handle eviction and on server shutdown.
func (bt *batcher) close() {
	bt.mu.Lock()
	bt.closed = true
	bt.mu.Unlock()
}

// batcherSnapshot is the wire form of the (server-wide, summed)
// batcher counters.
type batcherSnapshot struct {
	Batches  int64 `json:"batches"`
	RHS      int64 `json:"batched_rhs"`
	MaxBatch int64 `json:"max_batch"`
}
