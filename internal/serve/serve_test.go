package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/metrics"
	"wavelethpc/internal/wavelet"
)

// newTestServer builds a server with the given knobs and returns it with
// a gate: while the gate is open (not yet closed), executors block in
// the hook before touching any job, letting tests fill the queue
// deterministically.
func newTestServer(t *testing.T, cfg Config) (*Server, chan struct{}, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{}, 1024)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.execHook = func() {
		entered <- struct{}{}
		<-gate
	}
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, gate, entered
}

// waitCounter polls an atomic counter until it reaches want.
func waitCounter(t *testing.T, c *metrics.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func requirePyramidMatchesReference(t *testing.T, label string, im *image.Image, bank *filter.Bank, levels int, got *wavelet.Pyramid) {
	t.Helper()
	ref, err := wavelet.DecomposeReference(im, bank, filter.Periodic, levels)
	if err != nil {
		t.Fatal(err)
	}
	if !image.EqualBits(ref.Approx, got.Approx) {
		t.Fatalf("%s: approximation diverged from reference", label)
	}
	for i := range ref.Levels {
		if !image.EqualBits(ref.Levels[i].LH, got.Levels[i].LH) ||
			!image.EqualBits(ref.Levels[i].HL, got.Levels[i].HL) ||
			!image.EqualBits(ref.Levels[i].HH, got.Levels[i].HH) {
			t.Fatalf("%s: detail level %d diverged from reference", label, i)
		}
	}
}

// TestOverloadRejectsDeterministically is the bounded-queue contract:
// with one blocked worker and a depth-2 queue, exactly worker+depth
// requests are admitted and every further Do returns *OverloadError
// immediately — the queue never grows and admission never blocks.
func TestOverloadRejectsDeterministically(t *testing.T) {
	s, gate, entered := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Levels: 2})
	im := image.Landsat(32, 32, 1)

	type outcome struct {
		res *Result
		err error
	}
	results := make(chan outcome, 3)
	for i := 0; i < 3; i++ {
		go func() {
			res, err := s.Do(context.Background(), Request{Image: im})
			results <- outcome{res, err}
		}()
	}
	<-entered // worker holds request 1
	waitCounter(t, &s.metrics.Accepted, 3)

	// Queue now full (2 queued + 1 in flight): rejection is deterministic.
	for i := 0; i < 5; i++ {
		start := time.Now()
		_, err := s.Do(context.Background(), Request{Image: im})
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("attempt %d: err = %v, want *OverloadError", i, err)
		}
		if oe.Capacity != 2 {
			t.Errorf("Capacity = %d, want 2", oe.Capacity)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("rejection took %v, want immediate", d)
		}
	}
	if got := s.metrics.Rejected.Value(); got != 5 {
		t.Errorf("Rejected = %d, want 5", got)
	}

	close(gate)
	for i := 0; i < 3; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("admitted request failed: %v", o.err)
		}
		requirePyramidMatchesReference(t, "admitted", im, s.cfg.Bank, 2, o.res.Pyramid)
		o.res.Close()
	}
}

// TestOverloadNeverBlocksPastDeadline: a caller with a deadline learns
// about overload via *OverloadError, not by burning its deadline in
// line — admission is non-blocking by construction.
func TestOverloadNeverBlocksPastDeadline(t *testing.T) {
	s, _, entered := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Levels: 1})
	im := image.Landsat(16, 16, 2)

	go s.Do(context.Background(), Request{Image: im}) // worker occupied
	<-entered
	go s.Do(context.Background(), Request{Image: im}) // fills the queue
	waitCounter(t, &s.metrics.Accepted, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err := s.Do(ctx, Request{Image: im})
	elapsed := time.Since(start)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("overloaded Do took %v, want immediate rejection", elapsed)
	}
}

// TestQueuedRequestExpires: a request whose context ends while queued is
// returned to its caller with the context error and skipped (counted as
// Expired) by the executor, not decomposed.
func TestQueuedRequestExpires(t *testing.T) {
	s, gate, entered := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Levels: 1})
	im := image.Landsat(16, 16, 3)

	go s.Do(context.Background(), Request{Image: im})
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, Request{Image: im})
		errc <- err
	}()
	waitCounter(t, &s.metrics.Accepted, 2)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	close(gate)
	waitCounter(t, &s.metrics.Expired, 1)
	if got := s.metrics.Completed.Value(); got != 1 {
		t.Errorf("Completed = %d, want 1 (expired request must not execute)", got)
	}
}

// TestGracefulDrain: Shutdown completes queued and in-flight work, then
// stops; later Dos get ErrStopped; executors exit (Shutdown returns nil).
func TestGracefulDrain(t *testing.T) {
	s, gate, entered := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Levels: 2})
	im := image.Landsat(32, 32, 4)

	const n = 6
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := s.Do(context.Background(), Request{Image: im})
			if err == nil {
				res.Close()
			}
			results <- err
		}()
	}
	<-entered
	<-entered // both workers hold a request
	waitCounter(t, &s.metrics.Accepted, n)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to flip the stopped flag, then release.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.RLock()
		stopped := s.stopped
		s.mu.RUnlock()
		if stopped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never stopped admission")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Do(context.Background(), Request{Image: im}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Do after Shutdown: err = %v, want ErrStopped", err)
	}
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("drained request %d failed: %v", i, err)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s.metrics.Completed.Value(); got != n {
		t.Errorf("Completed = %d, want %d", got, n)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestPooledDecomposersNotSharedConcurrently is the -race stress gate:
// many goroutines across several traffic classes hammer the server, and
// every result must be bit-identical to the reference. A Decomposer
// leaking between two in-flight requests shows up either as a race
// report or as a diverged pyramid (its output buffers get overwritten).
func TestPooledDecomposersNotSharedConcurrently(t *testing.T) {
	s, err := New(Config{Workers: 4, QueueDepth: 256, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	classes := []struct {
		im     *image.Image
		bank   *filter.Bank
		levels int
	}{
		{image.Landsat(32, 32, 1), filter.Haar(), 2},
		{image.Landsat(32, 32, 2), filter.Daubechies8(), 2},
		{image.Landsat(64, 16, 3), filter.Daubechies4(), 1},
	}
	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := classes[(g+i)%len(classes)]
				res, err := s.Do(context.Background(), Request{Image: c.im, Bank: c.bank, Levels: c.levels})
				if err != nil {
					var oe *OverloadError
					if errors.As(err, &oe) {
						continue // legitimate under stress
					}
					errs <- err
					return
				}
				ref, err := wavelet.DecomposeReference(c.im, c.bank, filter.Periodic, c.levels)
				if err != nil {
					errs <- err
					return
				}
				if !image.EqualBits(ref.Approx, res.Pyramid.Approx) {
					errs <- fmt.Errorf("goroutine %d iter %d: pyramid diverged (decomposer shared?)", g, i)
					return
				}
				res.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMetricsSnapshotCountsMatchRequests: the registry's counters must
// agree exactly with the requests issued.
func TestMetricsSnapshotCountsMatchRequests(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDepth: 8, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	im := image.Landsat(16, 16, 5)
	const n = 7
	for i := 0; i < n; i++ {
		res, err := s.Do(context.Background(), Request{Image: im})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	snap := s.metrics.Snapshot()
	if snap.Accepted != n || snap.Completed != n {
		t.Errorf("Accepted/Completed = %d/%d, want %d/%d", snap.Accepted, snap.Completed, n, n)
	}
	if snap.Rejected != 0 || snap.Errors != 0 || snap.Expired != 0 {
		t.Errorf("Rejected/Errors/Expired = %d/%d/%d, want 0/0/0", snap.Rejected, snap.Errors, snap.Expired)
	}
	if snap.Latency.Count != n {
		t.Errorf("latency observations = %d, want %d", snap.Latency.Count, n)
	}
	if snap.QueueDepth.Count != n {
		t.Errorf("queue-depth observations = %d, want %d", snap.QueueDepth.Count, n)
	}
}

// TestConfigAndRequestValidation: misuse surfaces as errors wrapping
// *wavelet.UsageError — never a panic across the serve boundary.
func TestConfigAndRequestValidation(t *testing.T) {
	for _, cfg := range []Config{
		{QueueDepth: -1},
		{Workers: -2},
		{Levels: -3},
		{Extension: filter.Extension(99)},
	} {
		_, err := New(cfg)
		var ue *wavelet.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("New(%+v): err = %v, want wrapped *wavelet.UsageError", cfg, err)
		}
	}

	s, err := New(Config{Workers: 1, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	cases := []Request{
		{}, // nil image
		{Image: image.Landsat(16, 16, 1), Levels: -1},
		{Image: image.Landsat(10, 10, 1)},                       // not decomposable to 2 levels
		{Image: image.Landsat(16, 16, 1), Levels: 9},            // too deep
		{Image: image.Landsat(16, 16, 1), Bank: &filter.Bank{}}, // no analysis filters
	}
	for i, req := range cases {
		_, err := s.Do(context.Background(), req)
		var ue *wavelet.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("case %d: err = %v, want wrapped *wavelet.UsageError", i, err)
		}
	}
}

// TestResultDetach: Detach hands back a pyramid that survives the
// decomposer's return to the pool and subsequent reuse.
func TestResultDetach(t *testing.T) {
	s, err := New(Config{Workers: 1, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	a := image.Landsat(32, 32, 11)
	b := image.Landsat(32, 32, 22)

	res, err := s.Do(context.Background(), Request{Image: a})
	if err != nil {
		t.Fatal(err)
	}
	kept := res.Detach() // closes res; pool may hand the decomposer out again
	res2, err := s.Do(context.Background(), Request{Image: b})
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Close()
	requirePyramidMatchesReference(t, "detached", a, s.cfg.Bank, 2, kept)
	requirePyramidMatchesReference(t, "reused", b, s.cfg.Bank, 2, res2.Pyramid)
}
