package server

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matgen"
)

// TestCacheEvictedPendingEntryUncounted pins the approx_bytes accounting
// of a pending entry that a later miss evicts: with room for one pattern,
// the second miss evicts the first while its Analyze is still running, so
// once both return only the second analysis is resident and approx_bytes
// counts it alone.
func TestCacheEvictedPendingEntryUncounted(t *testing.T) {
	specs := matgen.SmallSuite()
	symA, err := core.Analyze(specs[0].Gen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	symB, err := core.Analyze(specs[1].Gen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{CacheEntries: 1}).cache

	// miss starts getOrAnalyze for key with a callback that blocks until
	// release is closed, and returns once the callback is running.
	miss := func(key string, sym *core.Symbolic, release chan struct{}) <-chan error {
		started := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, _, err := c.getOrAnalyze(context.Background(), key, func() (*core.Symbolic, error) {
				close(started)
				<-release
				return sym, nil
			})
			done <- err
		}()
		select {
		case <-started:
		case <-done:
			t.Fatalf("%s: getOrAnalyze returned without analyzing", key)
		}
		return done
	}
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	doneA := miss("a", symA, releaseA)
	doneB := miss("b", symB, releaseB)
	if got := c.evictions.Load(); got != 1 {
		t.Fatalf("%d evictions after the second miss, want 1", got)
	}
	close(releaseA)
	close(releaseB)
	for _, done := range []<-chan error{doneA, doneB} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.snapshot().Bytes, symBytes(symB); got != want {
		t.Fatalf("approx_bytes = %d after the pending entry was evicted, want the resident entry's %d", got, want)
	}
}

// TestSymBytesTracksRetainedHeap pins symBytes to what a Symbolic really
// retains: on every full-size suite matrix the live heap that dropping
// the Symbolic one Analyze returned frees is within 15 % of the
// estimate. Taking the difference across the drop rather than across the
// Analyze keeps garbage that goroutines of earlier tests release in the
// meantime out of the reading.
func TestSymBytesTracksRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the full-size suite")
	}
	opts := core.DefaultOptions()
	// The warm-up pays any once-per-process cost. Two collections then
	// empty the sync.Pools earlier tests filled (the codec's body buffers
	// hold up to 4 MB each): a pool is dropped over two collections, and
	// one that went during the first matrix's measurement would count as
	// heap its Symbolic retained.
	if _, err := core.Analyze(matgen.SmallSuite()[0].Gen(), opts); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	for _, spec := range matgen.Suite() {
		a := spec.Gen()
		s, err := core.Analyze(a, opts)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		est := float64(symBytes(s))
		runtime.GC()
		runtime.ReadMemStats(&ms)
		held := ms.HeapAlloc
		runtime.KeepAlive(s)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		grown := float64(held) - float64(ms.HeapAlloc)
		t.Logf("%s: retained %.0f B, symBytes %.0f B (%.3f×)", spec.Name, grown, est, est/grown)
		if r := est / grown; r < 0.85 || r > 1.15 {
			t.Errorf("%s: symBytes %.0f B is %.2f× the %.0f B one Analyze retains, want 0.85–1.15×", spec.Name, est, r, grown)
		}
		runtime.KeepAlive(a)
	}
}

// TestCachePanickingAnalyzeReleasesEntry pins that an Analyze that
// panics settles its entry as a failed analysis: the panic reaches the
// caller, and the next request for the pattern runs its own analysis
// instead of waiting on the abandoned entry until its deadline.
func TestCachePanickingAnalyzeReleasesEntry(t *testing.T) {
	sym, err := core.Analyze(matgen.SmallSuite()[0].Gen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{CacheEntries: 4}).cache
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the analyze panic did not reach the caller")
			}
		}()
		c.getOrAnalyze(context.Background(), "k", func() (*core.Symbolic, error) { panic("injected") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	ran := false
	got, hit, err := c.getOrAnalyze(ctx, "k", func() (*core.Symbolic, error) {
		ran = true
		return sym, nil
	})
	if err != nil || !ran || hit || got != sym {
		t.Fatalf("second request: ran %v, hit %v, err %v; want its own analysis", ran, hit, err)
	}
	if s := c.snapshot(); s.Entries != 1 || s.Analyzes != 2 || s.Bytes != symBytes(sym) {
		t.Fatalf("cache after the retry: %+v, want one resident entry of %d bytes after two analyses", s, symBytes(sym))
	}
}
