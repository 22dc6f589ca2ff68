// Command sluserver runs the long-lived sparse LU solve service: an
// HTTP daemon that amortizes one symbolic analysis over many numeric
// factorizations and solves of the same sparsity pattern — the
// serving-side realization of the paper's static-pipeline economics.
//
// Quickstart:
//
//	sluserver -addr :8080 &
//	curl -s localhost:8080/v1/factorize -d '{"matrix":{"n":2,"rows":[0,1,0],"cols":[0,1,1],"vals":[4,3,1]}}'
//	curl -s localhost:8080/v1/solve -d '{"fid":"f1","b":[5,3]}'
//
// Deterministic request faults for chaos testing come from the
// SLUSERVER_FAULTS environment variable, e.g.
//
//	SLUSERVER_FAULTS="3:panic,5:delay=50ms,9:nan" sluserver -addr :0
//
// The daemon drains gracefully on SIGINT/SIGTERM: readiness flips to
// 503, in-flight requests finish (bounded by their deadlines), pending
// solve batches flush, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sluserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "numeric workers per request (0 = auto)")
		inFlight    = flag.Int("inflight", 0, "concurrent compute slots (0 = auto)")
		maxQueue    = flag.Int("queue", 0, "admission queue length (0 = auto)")
		cacheSize   = flag.Int("cache", 0, "symbolic cache entries (0 = default)")
		storeSize   = flag.Int("store", 0, "factorization store entries (0 = default)")
		deadline    = flag.Duration("deadline", 0, "default per-request deadline (0 = 30s)")
		maxDeadline = flag.Duration("max-deadline", 0, "hard per-request deadline cap (0 = 2m)")
		batchMax    = flag.Int("batch-max", 0, "solve batch size cap (0 = 16)")
		drainWait   = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	faults, err := faultinject.ParseRequestPlan(os.Getenv("SLUSERVER_FAULTS"))
	if err != nil {
		return err
	}
	if faults.Planned() > 0 {
		fmt.Fprintf(os.Stderr, "sluserver: chaos mode: %d request faults planned\n", faults.Planned())
	}

	srv := server.New(server.Config{
		Workers:         *workers,
		MaxInFlight:     *inFlight,
		MaxQueue:        *maxQueue,
		CacheEntries:    *cacheSize,
		StoreEntries:    *storeSize,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		BatchMax:        *batchMax,
		Faults:          faults,
	})
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Bind before serving so "-addr :0" (pick any free port) reports the
	// real address — the smoke harness in check.sh scrapes this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sluserver: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "sluserver: draining")
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
