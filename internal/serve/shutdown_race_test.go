package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wavelethpc/internal/image"
)

// TestShutdownRaceEveryRequestOneOutcome hammers Do, the HTTP handler,
// and Shutdown concurrently (run under -race): every request must settle
// with exactly one typed outcome — a Result, *OverloadError, ErrStopped,
// or the caller's context error — and the Decomposer pools must not leak
// under the churn.
func TestShutdownRaceEveryRequestOneOutcome(t *testing.T) {
	const workers = 2
	s, err := New(Config{QueueDepth: 8, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()
	im := image.Landsat(32, 32, 5)
	var pgm bytes.Buffer
	if err := image.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}

	var (
		results  atomic.Int64
		overload atomic.Int64
		stopped  atomic.Int64
		ctxErrs  atomic.Int64
		badHTTP  atomic.Int64
	)
	// Shutdown fires only after enough traffic has settled, and every Do
	// client keeps issuing requests until it personally observes
	// ErrStopped — so the race window cannot be missed on either side,
	// no matter how the scheduler interleaves the goroutines.
	var settled, httpReqs atomic.Int64
	shutdownNow := make(chan struct{})
	var trigger sync.Once
	shutdownDone := make(chan struct{})
	var wg sync.WaitGroup
	// Direct Do callers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				res, err := s.Do(ctx, Request{Image: im, Levels: 2})
				cancel()
				switch {
				case err == nil && res != nil:
					results.Add(1)
					res.Close()
				case err == nil || res != nil:
					t.Error("Do returned neither-or-both of (Result, error)")
				case func() bool { var oe *OverloadError; return errors.As(err, &oe) }():
					overload.Add(1)
				case errors.Is(err, ErrStopped):
					stopped.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					ctxErrs.Add(1)
				default:
					t.Errorf("Do settled with an untyped outcome: %v", err)
				}
				if settled.Add(1) >= 40 {
					trigger.Do(func() { close(shutdownNow) })
				}
				if err != nil && errors.Is(err, ErrStopped) {
					return // the server is down for good; outcome recorded
				}
			}
			t.Error("Do client never observed ErrStopped")
		}()
	}
	// HTTP callers racing the same shutdown.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post := func(i int) int {
				httpReqs.Add(1)
				req := httptest.NewRequest(http.MethodPost,
					"/v1/decompose?filter=db8&levels=2", bytes.NewReader(pgm.Bytes()))
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				default:
					badHTTP.Add(1)
					t.Errorf("HTTP request %d: status %d", i, rec.Code)
				}
				return rec.Code
			}
			for i := 0; i < 5000; i++ {
				select {
				case <-shutdownDone:
					// The drained server must refuse over HTTP too.
					if code := post(i); code != http.StatusServiceUnavailable {
						t.Errorf("post-shutdown HTTP status %d, want 503", code)
					}
					return
				default:
					post(i)
				}
			}
		}()
	}
	// The shutdown racer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-shutdownNow
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		close(shutdownDone)
	}()
	wg.Wait()

	if results.Load() == 0 {
		t.Error("no request completed before shutdown; the race window missed")
	}
	if stopped.Load() == 0 {
		t.Error("no request observed ErrStopped; shutdown raced nothing")
	}
	// Leak witness: one traffic class (shape, bank, levels), so the pool
	// needs about one Decomposer per concurrent caller — a leak creates
	// one per request. The threshold is proportional rather than constant
	// because sync.Pool deliberately drops ~1/4 of Puts under the race
	// detector (and GC may discard entries), so some re-creation is
	// expected; a leak still lands at ~1× the request count, well above
	// the halfway line.
	total := settled.Load() + httpReqs.Load()
	if got := int64(s.CreatedDecomposers()); got > workers+8+total/2 {
		t.Errorf("pools created %d Decomposers across %d requests with %d workers — leak",
			got, total, workers)
	}
	t.Logf("outcomes: %d results, %d overload, %d stopped, %d ctx, %d bad-http",
		results.Load(), overload.Load(), stopped.Load(), ctxErrs.Load(), badHTTP.Load())
}

// TestReadyzReportsSaturationAndDrain pins the /readyz contract: 200 with
// queue headroom, 503 + JSON body once the queue is saturated, 503 after
// Shutdown — while /healthz stays a pure liveness check until drain.
func TestReadyzReportsSaturationAndDrain(t *testing.T) {
	s, err := New(Config{QueueDepth: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	hookReached := make(chan struct{}, 8)
	s.execHook = func() {
		hookReached <- struct{}{}
		<-gate
	}
	handler := s.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("idle /readyz = %d, want 200", rec.Code)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("idle /healthz = %d, want 200", rec.Code)
	}

	// Saturate: one request executing (held at the hook), one queued.
	im := image.Landsat(32, 32, 5)
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := s.Do(context.Background(), Request{Image: im, Levels: 2})
			if err == nil {
				res.Close()
			}
			done <- struct{}{}
		}()
	}
	<-hookReached // first request is executing; the second occupies the queue
	for len(s.queue) == 0 {
		time.Sleep(time.Millisecond)
	}
	rec := get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated /readyz = %d, want 503", rec.Code)
	}
	if body := rec.Body.String(); !bytes.Contains([]byte(body), []byte(`"capacity":1`)) {
		t.Errorf("saturated /readyz body %q missing queue capacity", body)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("saturated /healthz = %d, want 200 (saturation is not un-liveness)", rec.Code)
	}

	close(gate)
	<-done
	<-done
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("drained /readyz = %d, want 503", rec.Code)
	}
	if rec := get("/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("drained /healthz = %d, want 503", rec.Code)
	}
}
