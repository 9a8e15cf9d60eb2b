// Command waveserved runs the embeddable decomposition service of
// internal/serve as a standalone HTTP daemon: a bounded admission queue
// with deterministic 503 overload rejection in front of the pooled
// fast-path Decomposers, with Prometheus-style metrics.
//
// Endpoints:
//
//	POST /v1/decompose   binary PGM in, PGM out
//	                     ?filter=db8&levels=3&output=mosaic|roundtrip
//	GET  /healthz        liveness: 200 "ok" (503 while draining)
//	GET  /readyz         readiness: 503 + JSON (queue, capacity) when
//	                     the admission queue is saturated or draining
//	GET  /metrics        Prometheus text format
//
// Usage:
//
//	waveserved -addr 127.0.0.1:8080 -filter db8 -levels 3 -queue 64 -drain 30s
//
// SIGINT/SIGTERM trigger a graceful drain bounded by -drain: the
// listener stops, queued and in-flight requests complete, then the
// process exits 0. If the budget expires with work still in flight the
// process exits 3, so supervisors can tell a clean drain from an
// abandoned one. A second signal aborts immediately (exit 3).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wavelethpc/internal/cli"
	"wavelethpc/internal/serve"
)

// exitAbandoned is the exit code when the drain budget expired with
// in-flight work still unfinished.
const exitAbandoned = 3

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("waveserved: ")
	var sf cli.ServeFlags
	fs := flag.NewFlagSet("waveserved", flag.ExitOnError)
	sf.AddServe(fs)
	fs.Parse(os.Args[1:])

	cfg, err := sf.ServeConfig()
	if err != nil {
		log.Print(err)
		return 1
	}
	srv, err := serve.New(cfg)
	if err != nil {
		log.Print(err)
		return 1
	}
	handler := srv.Handler()
	if sf.Deadline > 0 {
		handler = withDeadline(handler, sf.Deadline)
	}
	httpSrv := &http.Server{Addr: sf.Addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (filter %s, levels %d, queue %d, workers %d, drain %v)",
		sf.Addr, sf.Filter, sf.Levels, sf.Queue, cfg.Workers, sf.Drain)

	select {
	case err := <-errc:
		log.Print(err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("draining (budget %v)...", sf.Drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), sf.Drain)
	defer cancel()
	abandoned := false
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
		abandoned = true
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain: %v", err)
		abandoned = true
	}
	snap := srv.Metrics().Snapshot()
	log.Printf("served %d (rejected %d, errors %d, expired %d)",
		snap.Completed, snap.Rejected, snap.Errors, snap.Expired)
	if abandoned {
		log.Printf("drain budget expired with work in flight; exiting %d", exitAbandoned)
		return exitAbandoned
	}
	return 0
}

// withDeadline imposes the server-side per-request deadline on top of
// whatever deadline the client connection already carries.
func withDeadline(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
