package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sparse"
)

// patternKey fingerprints the sparsity pattern of a matrix together
// with the analysis-shaping options: two matrices with equal keys have
// identical CSC structure and would produce identical Symbolic
// objects, so the analysis of one serves the other. It delegates to
// core.PatternHash — the same fingerprint core.Reanalyze uses — so
// "cache hit" and "identical pattern" are provably the same predicate:
// a miss is a pattern no resident analysis serves, and gets a full
// core.Analyze.
func patternKey(m *sparse.CSC, opts *core.Options) string {
	return core.PatternHash(m, opts)
}

// symBytes estimates the bytes a Symbolic retains, for the cache's
// approx_bytes counter. A Symbolic keeps what factorizations read plus
// the block-level closure; the scalar Ā and eforest are transients of
// Analyze, and a structure keeps Ū by rows only. Per block of the
// closure 8 B (L̄ by columns and Ū by rows, 8-byte indices); per
// stored block 32 B (its L̄ and Ū-row views and, for a Ū block, its slot
// in the block-column layout); per column 80 B (the three permutations,
// the column-to-block map, the per-block arrays and the row plan, 4 B
// per planned row); per task of the stored graph 90 B with its costs and
// priorities, and 4 B an edge; and for the layout's target maps (one
// int32 per planned row of K and stored U(K,J)) half a byte per value of
// a factorization's slab: the maps hold 0.10–0.14 int32 per slab value
// on the seven full-size suite matrices. 0.99–1.09× the live heap one
// Analyze adds on them (TestSymBytesTracksRetainedHeap); the closure is
// 27–51 % of that heap.
func symBytes(s *core.Symbolic) int64 {
	st := s.Stats
	return int64(st.BlockNNZ)*8 + int64(st.StoredBlocks)*32 +
		int64(st.N)*80 + int64(st.StoredTasks)*90 + int64(st.StoredEdges)*4 +
		int64(s.SlabEntries())/2
}

// factorBytes estimates the bytes one factorization of a pattern
// allocates: its value slab (the stored U blocks, the diagonal blocks
// and the planned rows of L) plus the per-column and per-block-column
// index arrays. |Ā| alone undercounts it by the explicit zeros the
// slab still stores.
func factorBytes(s *core.Symbolic) int64 {
	st := s.Stats
	return int64(s.SlabEntries())*8 + int64(st.N)*16 + int64(st.Blocks)*80
}

// cacheEntry is one cached analysis. ready is closed when sym/err are
// final, so concurrent requests for the same pattern coalesce onto a
// single Analyze call instead of racing N of them.
type cacheEntry struct {
	ready   chan struct{}
	sym     *core.Symbolic
	err     error
	bytes   int64
	seconds float64 // wall-clock cost of the Analyze that produced sym
}

// symCache is a bounded LRU of immutable Symbolic objects keyed by
// pattern hash. Entries are shared by reference: a Symbolic is
// analysis-immutable (nothing in the numeric or solve path writes to
// it — pinned by TestSymbolicReuseConcurrent), so handing the same
// pointer to many concurrent factorizations is safe and is exactly the
// reuse the paper's static approach is built around.
type symCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	order   []string // LRU order, least recent first

	hits      atomic.Int64
	misses    atomic.Int64
	analyzes  atomic.Int64 // core.Analyze invocations (hits provably skip it)
	evictions atomic.Int64
	bytes     atomic.Int64
}

func newSymCache(capacity int) *symCache {
	if capacity < 1 {
		capacity = 1
	}
	return &symCache{cap: capacity, entries: make(map[string]*cacheEntry)}
}

// touch moves key to the most-recent end of the LRU order. Caller
// holds mu.
func (c *symCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = key
			return
		}
	}
	c.order = append(c.order, key)
}

// getOrAnalyze returns the Symbolic for key, running analyze exactly
// once per resident pattern: the first requester computes, concurrent
// requesters for the same key wait on the entry, later requesters hit.
// The hit return is true only when the entry was already resident
// (the analyze callback provably did not run for this request).
func (c *symCache) getOrAnalyze(ctx context.Context, key string, analyze func() (*core.Symbolic, error)) (sym *core.Symbolic, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.touch(key)
		c.hits.Add(1)
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, context.Cause(ctx)
		}
		return e.sym, true, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.touch(key)
	c.misses.Add(1)
	// Evict least-recently-used resident entries over capacity. A
	// pending entry can be evicted too: its waiters hold the pointer,
	// only the map slot is reclaimed.
	for len(c.entries) > c.cap && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		if v, ok := c.entries[victim]; ok {
			delete(c.entries, victim)
			c.evictions.Add(1)
			c.bytes.Add(-v.bytes)
		}
	}
	c.mu.Unlock()

	// The entry is settled on every way out. An analyze that panics
	// leaves errAnalyzePanicked in place: a failed analysis, so its
	// waiters return and the next request for the pattern retries, while
	// the panic goes on to the caller.
	e.err = errAnalyzePanicked
	defer c.settle(key, e)
	e.sym, e.err = analyze()
	return e.sym, false, e.err
}

// errAnalyzePanicked is what the waiters on an entry whose analyze
// panicked get; the panic itself goes to the request that ran it.
var errAnalyzePanicked = errors.New("server: symbolic analysis panicked")

// settle records the outcome of the analysis behind e and releases its
// waiters.
func (c *symCache) settle(key string, e *cacheEntry) {
	c.analyzes.Add(1)
	if e.sym != nil {
		e.seconds = e.sym.Stats.AnalyzeSeconds
	}
	// Only a resident entry is counted: one a later miss evicted while
	// its Analyze ran is no longer in the map, and nothing would ever
	// subtract its bytes. e.bytes is read by evictions under mu, so it
	// is written under mu too.
	c.mu.Lock()
	if c.entries[key] == e {
		if e.err != nil {
			// Failed analyses are not cached: the next request with this
			// pattern retries instead of replaying a stale error.
			delete(c.entries, key)
			for i, k := range c.order {
				if k == key {
					c.order = append(c.order[:i], c.order[i+1:]...)
					break
				}
			}
		} else if e.sym != nil {
			e.bytes = symBytes(e.sym)
			c.bytes.Add(e.bytes)
		}
	}
	c.mu.Unlock()
	close(e.ready)
}

// cacheSnapshot is the wire form of the cache counters.
type cacheSnapshot struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Analyzes  int64 `json:"analyzes"`
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"approx_bytes"`
	// PatternSeconds is the analyze latency (seconds) that produced
	// each resident pattern. Bounded by the LRU capacity like the
	// entries themselves.
	PatternSeconds map[string]float64 `json:"analyze_seconds"`
}

func (c *symCache) snapshot() cacheSnapshot {
	c.mu.Lock()
	n := len(c.entries)
	secs := make(map[string]float64, n)
	for key, e := range c.entries {
		select {
		case <-e.ready:
			if e.sym != nil {
				secs[key] = e.seconds
			}
		default:
		}
	}
	c.mu.Unlock()
	return cacheSnapshot{
		Entries:        n,
		Capacity:       c.cap,
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Analyzes:       c.analyzes.Load(),
		Evictions:      c.evictions.Load(),
		Bytes:          c.bytes.Load(),
		PatternSeconds: secs,
	}
}
