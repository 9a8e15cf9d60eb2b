package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
)

// noSleep records backoff waits without spending wall time.
func noSleep(recorded *[]time.Duration) sleepFunc {
	return func(ctx context.Context, d time.Duration) {
		*recorded = append(*recorded, d)
	}
}

// stubBackend is an httptest backend whose behavior a test scripts.
type stubBackend struct {
	srv   *httptest.Server
	hits  atomic.Int64
	reply atomic.Value // func(w http.ResponseWriter, r *http.Request)
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	b := &stubBackend{}
	b.reply.Store(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, "ok")
	})
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body up front: with unread body bytes the server never
		// starts the background read that detects client disconnects, so a
		// stub blocking on r.Context() would hang Close forever.
		io.Copy(io.Discard, r.Body)
		b.hits.Add(1)
		b.reply.Load().(func(http.ResponseWriter, *http.Request))(w, r)
	}))
	t.Cleanup(b.srv.Close)
	return b
}

func (b *stubBackend) setReply(fn func(w http.ResponseWriter, r *http.Request)) {
	b.reply.Store(fn)
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // tests drive ProbeOnce explicitly
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Shutdown(context.Background()) })
	return g
}

// keyRankedFirst finds a RouteKey whose top-ranked backend is name.
func keyRankedFirst(t *testing.T, g *Gateway, name string) RouteKey {
	t.Helper()
	for i := 0; i < 4096; i++ {
		k := RouteKey{Rows: 64, Cols: 64, Bank: "db8", Levels: i + 1}
		if g.ranked(k.hash(g.cfg.Seed))[0].name == name {
			return k
		}
	}
	t.Fatalf("no key ranks %s first", name)
	return RouteKey{}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},
		{Backends: []string{"not a url"}},
		{Backends: []string{"http://a:1", "http://a:1"}},
		{Backends: []string{"http://a:1"}, MaxRetries: -1},
		{Backends: []string{"http://a:1"}, HedgeAfter: -time.Second},
		{Backends: []string{"http://a:1"}, BreakerErrorRate: 1.5},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
}

func TestRoutingAffinitySticky(t *testing.T) {
	b1, b2, b3 := newStubBackend(t), newStubBackend(t), newStubBackend(t)
	g := newTestGateway(t, Config{
		Backends: []string{b1.srv.URL, b2.srv.URL, b3.srv.URL},
		Seed:     42,
	})
	key := RouteKey{Rows: 512, Cols: 512, Bank: "db8", Levels: 3}
	var first string
	for i := 0; i < 10; i++ {
		res, err := g.Do(context.Background(), &Request{Path: "/v1/decompose", Body: []byte("x"), Key: key})
		if err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = res.Backend
		} else if res.Backend != first {
			t.Fatalf("request %d routed to %s, earlier ones to %s", i, res.Backend, first)
		}
	}
}

func TestRoutingSpreadsDistinctKeys(t *testing.T) {
	b1, b2, b3 := newStubBackend(t), newStubBackend(t), newStubBackend(t)
	g := newTestGateway(t, Config{
		Backends: []string{b1.srv.URL, b2.srv.URL, b3.srv.URL},
		Seed:     42,
	})
	seen := map[string]bool{}
	for i := 1; i <= 64; i++ {
		key := RouteKey{Rows: 32 * i, Cols: 32 * i, Bank: "db8", Levels: 3}
		res, err := g.Do(context.Background(), &Request{Path: "/v1/decompose", Body: []byte("x"), Key: key})
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Backend] = true
	}
	if len(seen) != 3 {
		t.Fatalf("64 distinct keys reached %d backends, want 3", len(seen))
	}
}

// TestRendezvousMinimalRemap: dropping one backend must only remap the
// keys it owned — the point of rendezvous routing is that the surviving
// backends' Decomposer pools stay hot.
func TestRendezvousMinimalRemap(t *testing.T) {
	urls := []string{"http://10.0.0.1:9001", "http://10.0.0.2:9001", "http://10.0.0.3:9001"}
	gAll, err := New(Config{Backends: urls, Seed: 7, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gAll.Shutdown(context.Background())
	gTwo, err := New(Config{Backends: urls[:2], Seed: 7, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gTwo.Shutdown(context.Background())
	for i := 1; i <= 200; i++ {
		k := RouteKey{Rows: i, Cols: i, Bank: "db8", Levels: 3}
		ownerAll := gAll.ranked(k.hash(7))[0].name
		ownerTwo := gTwo.ranked(k.hash(7))[0].name
		if ownerAll != urls[2] && ownerAll != ownerTwo {
			t.Fatalf("key %d moved from %s to %s though its owner survived", i, ownerAll, ownerTwo)
		}
	}
}

func TestRetryReroutesAfter5xx(t *testing.T) {
	bad, good := newStubBackend(t), newStubBackend(t)
	bad.setReply(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	})
	var sleeps []time.Duration
	g := newTestGateway(t, Config{
		Backends: []string{bad.srv.URL, good.srv.URL},
		Seed:     1,
		Sleep:    noSleep(&sleeps),
	})
	key := keyRankedFirst(t, g, bad.srv.URL)
	res, err := g.Do(context.Background(), &Request{Path: "/v1/decompose", Body: []byte("x"), Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != good.srv.URL {
		t.Fatalf("served by %s, want reroute to %s", res.Backend, good.srv.URL)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	if len(sleeps) != 1 {
		t.Fatalf("backoff sleeps = %v, want exactly one", sleeps)
	}
	bm := g.Metrics().Backend(bad.srv.URL)
	if got := bm.Failures.Value(); got != 1 {
		t.Errorf("bad backend failures = %d, want 1", got)
	}
	if got := g.Metrics().Backend(good.srv.URL).Retries.Value(); got != 1 {
		t.Errorf("good backend retries = %d, want 1", got)
	}
}

func TestRetryReroutesAfterConnectionError(t *testing.T) {
	dead := newStubBackend(t)
	deadURL := dead.srv.URL
	dead.srv.Close() // port now refuses connections
	good := newStubBackend(t)
	var sleeps []time.Duration
	g := newTestGateway(t, Config{
		Backends: []string{deadURL, good.srv.URL},
		Seed:     1,
		Sleep:    noSleep(&sleeps),
	})
	key := keyRankedFirst(t, g, deadURL)
	res, err := g.Do(context.Background(), &Request{Path: "/v1/decompose", Body: []byte("x"), Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != good.srv.URL {
		t.Fatalf("served by %s, want %s", res.Backend, good.srv.URL)
	}
}

func TestForwardsBackend4xxWithoutRetry(t *testing.T) {
	b := newStubBackend(t)
	b.setReply(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad levels", http.StatusBadRequest)
	})
	g := newTestGateway(t, Config{Backends: []string{b.srv.URL}, Seed: 1})
	res, err := g.Do(context.Background(), &Request{Path: "/v1/decompose", Body: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 forwarded", res.Status)
	}
	if got := b.hits.Load(); got != 1 {
		t.Fatalf("backend hit %d times, want 1 (no retry on 4xx)", got)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestOversizedResponseIsBadGateway: a backend body one byte past
// proto.MaxResponseBytes is never forwarded as the backend's 2xx, never
// cached and never retried; the client gets a typed 502.
func TestOversizedResponseIsBadGateway(t *testing.T) {
	var calls atomic.Int64
	g := newTestGateway(t, Config{
		Backends:   []string{"http://a.example:1", "http://b.example:1"},
		Seed:       1,
		CacheBytes: 1 << 30,
		Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			calls.Add(1)
			io.Copy(io.Discard, r.Body)
			return &http.Response{
				StatusCode:    http.StatusOK,
				Header:        http.Header{"Content-Type": {proto.ContentTypePyramid}},
				Body:          io.NopCloser(io.LimitReader(zeros{}, proto.MaxResponseBytes+1)),
				ContentLength: -1,
				Request:       r,
			}, nil
		}),
	})
	var pgm bytes.Buffer
	if err := image.WritePGM(&pgm, image.Landsat(8, 8, 1)); err != nil {
		t.Fatal(err)
	}
	h := g.Handler()
	for round := 1; round <= 2; round++ {
		req := httptest.NewRequest(http.MethodPost,
			"/v1/decompose?bank=haar&levels=1&output=pyramid", bytes.NewReader(pgm.Bytes()))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("round %d: status = %d with %d body bytes, want 502", round, rec.Code, rec.Body.Len())
		}
		if e := proto.DecodeError(rec.Code, rec.Body.Bytes()); e.Code != proto.CodeBadGateway {
			t.Fatalf("round %d: code = %q, want %q", round, e.Code, proto.CodeBadGateway)
		}
		if got := calls.Load(); got != int64(round) {
			t.Fatalf("round %d: %d backend round trips, want %d (no retry, no cache)", round, got, round)
		}
	}
	if entries, _ := g.CacheStats(); entries != 0 {
		t.Errorf("cache holds %d entries, want 0", entries)
	}
}

func TestAllBackendsDownTypedError(t *testing.T) {
	b1, b2 := newStubBackend(t), newStubBackend(t)
	u1, u2 := b1.srv.URL, b2.srv.URL
	b1.srv.Close()
	b2.srv.Close()
	var sleeps []time.Duration
	g := newTestGateway(t, Config{
		Backends: []string{u1, u2},
		Seed:     1,
		Sleep:    noSleep(&sleeps),
	})
	_, err := g.Do(context.Background(), &Request{Path: "/v1/decompose", Body: []byte("x")})
	var nb *NoBackendsError
	if !errors.As(err, &nb) {
		t.Fatalf("err = %v (%T), want *NoBackendsError", err, err)
	}
	if nb.Configured != 2 || nb.Tried == 0 || nb.Last == nil {
		t.Fatalf("NoBackendsError = %+v, want Configured 2, attempts recorded", nb)
	}
	if got := g.Metrics().NoBackends.Value(); got != 1 {
		t.Errorf("NoBackends counter = %d, want 1", got)
	}
}

func TestAllBreakersOpenFailsFastWithoutAttempts(t *testing.T) {
	b := newStubBackend(t)
	u := b.srv.URL
	b.srv.Close()
	var sleeps []time.Duration
	g := newTestGateway(t, Config{
		Backends:        []string{u},
		Seed:            1,
		BreakerFailures: 2,
		BreakerCooldown: time.Hour,
		Sleep:           noSleep(&sleeps),
	})
	// Trip the breaker.
	g.Do(context.Background(), &Request{Path: "/p", Body: []byte("x")})
	hitsBefore := g.Metrics().Backend(u).Requests.Value()
	start := time.Now()
	_, err := g.Do(context.Background(), &Request{Path: "/p", Body: []byte("x")})
	elapsed := time.Since(start)
	var nb *NoBackendsError
	if !errors.As(err, &nb) {
		t.Fatalf("err = %v, want *NoBackendsError", err)
	}
	if nb.Tried != 0 {
		t.Errorf("Tried = %d, want 0 (breaker refused up front)", nb.Tried)
	}
	if got := g.Metrics().Backend(u).Requests.Value(); got != hitsBefore {
		t.Errorf("open breaker still sent %d attempts", got-hitsBefore)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("fast-fail took %v", elapsed)
	}
}

func TestDeadlineBudgetRespected(t *testing.T) {
	slow := newStubBackend(t)
	slow.setReply(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never answers
	})
	g := newTestGateway(t, Config{
		Backends:     []string{slow.srv.URL},
		Seed:         1,
		AttemptFloor: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := g.Do(ctx, &Request{Path: "/p", Body: []byte("x")})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected an error from a blackholed fleet")
	}
	// The failure must be one of the gateway's typed outcomes, not a raw
	// transport error: BudgetError when the budget check cut the loop
	// short, NoBackendsError when the attempt count ran out first.
	var be *BudgetError
	var nb *NoBackendsError
	if !errors.As(err, &be) && !errors.As(err, &nb) {
		t.Fatalf("want *BudgetError or *NoBackendsError, got %T: %v", err, err)
	}
	// The retry loop must give up at (or just past) the deadline, not
	// multiply it by the attempt count.
	if elapsed > 450*time.Millisecond {
		t.Fatalf("request outlived its deadline budget: %v", elapsed)
	}
}

func TestBackoffFormula(t *testing.T) {
	base, max := 5*time.Millisecond, 250*time.Millisecond
	cases := []struct {
		retry int
		u     float64
		want  time.Duration
	}{
		{1, 1, 5 * time.Millisecond},
		{2, 1, 10 * time.Millisecond},
		{3, 0.5, 10 * time.Millisecond},
		{7, 1, 250 * time.Millisecond}, // 5ms<<6 = 320ms, capped
		{40, 0.5, 125 * time.Millisecond},
		{1, 0, 0},
	}
	for _, c := range cases {
		if got := backoff(c.retry, base, max, c.u); got != c.want {
			t.Errorf("backoff(%d, u=%g) = %v, want %v", c.retry, c.u, got, c.want)
		}
	}
}

func TestJitterStreamDeterministic(t *testing.T) {
	a, b := &jitter{seed: 99}, &jitter{seed: 99}
	for i := 0; i < 100; i++ {
		va, vb := a.unit(), b.unit()
		if va != vb {
			t.Fatalf("jitter streams diverge at %d: %v vs %v", i, va, vb)
		}
		if va < 0 || va >= 1 {
			t.Fatalf("jitter %v outside [0, 1)", va)
		}
	}
	c := &jitter{seed: 100}
	same := 0
	for i := 0; i < 100; i++ {
		if a.unit() == c.unit() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/100 times", same)
	}
}

func TestHedgedRequestWins(t *testing.T) {
	slow, fast := newStubBackend(t), newStubBackend(t)
	slow.setReply(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		fmt.Fprint(w, "slow")
	})
	g := newTestGateway(t, Config{
		Backends:   []string{slow.srv.URL, fast.srv.URL},
		Seed:       1,
		HedgeAfter: 25 * time.Millisecond,
	})
	key := keyRankedFirst(t, g, slow.srv.URL)
	start := time.Now()
	res, err := g.Do(context.Background(), &Request{Path: "/p", Body: []byte("x"), Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != fast.srv.URL {
		t.Fatalf("served by %s, want hedge winner %s", res.Backend, fast.srv.URL)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not cut tail latency: %v", elapsed)
	}
	bm := g.Metrics().Backend(fast.srv.URL)
	if got := bm.HedgesLaunched.Value(); got != 1 {
		t.Errorf("hedges launched = %d, want 1", got)
	}
	if got := bm.HedgesWon.Value(); got != 1 {
		t.Errorf("hedges won = %d, want 1", got)
	}
}

func TestDrainRejectsNewFinishesInFlight(t *testing.T) {
	release := make(chan struct{})
	slow := newStubBackend(t)
	slow.setReply(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, "done")
	})
	g := newTestGateway(t, Config{Backends: []string{slow.srv.URL}, Seed: 1})
	type outcome struct {
		res *Result
		err error
	}
	inflight := make(chan outcome, 1)
	go func() {
		res, err := g.Do(context.Background(), &Request{Path: "/p", Body: []byte("x")})
		inflight <- outcome{res, err}
	}()
	// Wait until the request reaches the backend.
	for slow.hits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- g.Shutdown(context.Background()) }()
	// Admission must close while the in-flight request still runs.
	for !g.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := g.Do(context.Background(), &Request{Path: "/p", Body: []byte("x")}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do during drain = %v, want ErrDraining", err)
	}
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	o := <-inflight
	if o.err != nil || string(o.res.Body) != "done" {
		t.Fatalf("in-flight request = (%v, %v), want completed body", o.res, o.err)
	}
	if got := g.Metrics().Drained.Value(); got != 1 {
		t.Errorf("Drained counter = %d, want 1", got)
	}
}

func TestShutdownHonorsContext(t *testing.T) {
	slow := newStubBackend(t)
	release := make(chan struct{})
	slow.setReply(func(w http.ResponseWriter, r *http.Request) {
		<-release
	})
	g := newTestGateway(t, Config{Backends: []string{slow.srv.URL}, Seed: 1})
	go g.Do(context.Background(), &Request{Path: "/p", Body: []byte("x")})
	for slow.hits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := g.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with stuck request = %v, want DeadlineExceeded", err)
	}
	close(release)
}

func TestProbeOnceFeedsBreakers(t *testing.T) {
	healthy, sick := newStubBackend(t), newStubBackend(t)
	healthy.setReply(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ready":true}`)
	})
	sick.setReply(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "saturated", http.StatusServiceUnavailable)
	})
	g := newTestGateway(t, Config{
		Backends:        []string{healthy.srv.URL, sick.srv.URL},
		Seed:            1,
		BreakerFailures: 2,
	})
	for i := 0; i < 2; i++ {
		g.ProbeOnce(context.Background())
	}
	states := g.BreakerStates()
	if states[healthy.srv.URL] != BreakerClosed {
		t.Errorf("healthy backend state = %v, want closed", states[healthy.srv.URL])
	}
	if states[sick.srv.URL] != BreakerOpen {
		t.Errorf("sick backend state = %v, want open", states[sick.srv.URL])
	}
	if got := g.Metrics().Backend(sick.srv.URL).ProbeFailures.Value(); got != 2 {
		t.Errorf("probe failures = %d, want 2", got)
	}
}

func TestHandlerEndToEnd(t *testing.T) {
	backend := newStubBackend(t)
	backend.setReply(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/decompose":
			w.Header().Set("Content-Type", "image/x-portable-graymap")
			fmt.Fprint(w, "decomposed")
		case "/v1/banks":
			fmt.Fprint(w, "db8\nhaar\n")
		default:
			http.NotFound(w, r)
		}
	})
	g := newTestGateway(t, Config{Backends: []string{backend.srv.URL}, Seed: 1})
	h := g.Handler()

	var buf bytes.Buffer
	if err := image.WritePGM(&buf, image.Landsat(32, 32, 3)); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/decompose?bank=db8&levels=3", bytes.NewReader(buf.Bytes()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != "decomposed" {
		t.Fatalf("decompose = %d %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Wavegate-Backend"); got != backend.srv.URL {
		t.Errorf("X-Wavegate-Backend = %q, want %q", got, backend.srv.URL)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/banks", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "db8") {
		t.Fatalf("banks = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ready":true`) {
		t.Fatalf("readyz = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "wavegate_admitted_total 2") {
		t.Fatalf("metrics = %d %q", rec.Code, rec.Body.String())
	}

	// Drain: the HTTP surface must 503 everywhere relevant.
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decompose", strings.NewReader("P5")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("decompose during drain = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", rec.Code)
	}
}

// TestSniffPGMShape exercises the shape sniffer (now shared via
// internal/proto) against the routing-affinity cases this package cares
// about.
func TestSniffPGMShape(t *testing.T) {
	cases := []struct {
		in         string
		rows, cols int
		ok         bool
	}{
		{"P5 640 480 255\n", 480, 640, true},
		{"P5\n# comment\n640\t480\n255\n", 480, 640, true},
		{"P5\n#c1\n#c2\n7 9\n255\n", 9, 7, true},
		{"P6 640 480 255\n", 0, 0, false},
		{"P5", 0, 0, false},
		{"P5 abc def", 0, 0, false},
		{"P5 0 480 255\n", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, c := range cases {
		rows, cols, ok := proto.SniffPGMShape([]byte(c.in))
		if rows != c.rows || cols != c.cols || ok != c.ok {
			t.Errorf("SniffPGMShape(%q) = (%d, %d, %v), want (%d, %d, %v)",
				c.in, rows, cols, ok, c.rows, c.cols, c.ok)
		}
	}
}

func TestRouteKeyHashSensitivity(t *testing.T) {
	base := RouteKey{Rows: 512, Cols: 512, Bank: "db8", Levels: 3}
	variants := []RouteKey{
		{Rows: 256, Cols: 512, Bank: "db8", Levels: 3},
		{Rows: 512, Cols: 256, Bank: "db8", Levels: 3},
		{Rows: 512, Cols: 512, Bank: "db4", Levels: 3},
		{Rows: 512, Cols: 512, Bank: "db8", Levels: 2},
	}
	h := base.hash(42)
	for _, v := range variants {
		if v.hash(42) == h {
			t.Errorf("key %+v collides with base", v)
		}
	}
	if base.hash(42) != base.hash(42) {
		t.Error("hash is not a pure function")
	}
	if base.hash(42) == base.hash(43) {
		t.Error("seed does not salt the hash")
	}
}

func TestBudgetArithmetic(t *testing.T) {
	clk := newFakeClock()
	deadline := clk.t.Add(time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	bud := newBudget(ctx, clk.now)
	if got := bud.remaining(); got != time.Second {
		t.Fatalf("remaining = %v, want 1s", got)
	}
	if !bud.allows(100*time.Millisecond, 50*time.Millisecond) {
		t.Error("budget should fund 100ms sleep + 50ms attempt inside 1s")
	}
	if bud.allows(900*time.Millisecond, 200*time.Millisecond) {
		t.Error("budget overcommitted past the deadline")
	}
	// Even split across remaining attempts.
	if got := bud.attemptTimeout(4, 10*time.Millisecond); got != 250*time.Millisecond {
		t.Errorf("attemptTimeout(4) = %v, want 250ms", got)
	}
	clk.advance(990 * time.Millisecond)
	if got := bud.attemptTimeout(4, 50*time.Millisecond); got != 50*time.Millisecond {
		t.Errorf("attemptTimeout near deadline = %v, want the 50ms floor", got)
	}
	// No deadline: effectively unbounded.
	free := newBudget(context.Background(), clk.now)
	if !free.allows(time.Minute, time.Minute) {
		t.Error("deadline-free budget refused a sleep")
	}
}

// TestMetricsExpositionFormat pins the Prometheus text exposition byte
// for byte: dashboards and scrapers parse this surface, so a rename or
// reorder must show up as a deliberate golden-file change.
func TestMetricsExpositionFormat(t *testing.T) {
	m := newGatewayMetrics([]string{"http://b.example:1", "http://a.example:1"})
	m.Admitted.Add(3)
	m.Completed.Add(2)
	m.Drained.Add(1)
	a := m.Backend("http://a.example:1")
	a.Requests.Add(2)
	a.Successes.Add(2)
	b := m.Backend("http://b.example:1")
	b.Requests.Add(1)
	b.Failures.Add(1)
	b.Retries.Add(1)
	b.BreakerOpened.Add(1)
	m.CacheHits.Add(5)
	m.CacheMisses.Add(4)
	m.TiledRequests.Add(1)
	m.TileStripes.Add(3)

	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP wavegate_admitted_total requests accepted for routing
# TYPE wavegate_admitted_total counter
wavegate_admitted_total 3
# HELP wavegate_completed_total requests answered with a backend response
# TYPE wavegate_completed_total counter
wavegate_completed_total 2
# HELP wavegate_drained_total requests refused during drain
# TYPE wavegate_drained_total counter
wavegate_drained_total 1
# HELP wavegate_no_backends_total requests failed with NoBackendsError
# TYPE wavegate_no_backends_total counter
wavegate_no_backends_total 0
# HELP wavegate_budget_exhausted_total requests cut short by the deadline budget
# TYPE wavegate_budget_exhausted_total counter
wavegate_budget_exhausted_total 0
# HELP wavegate_cache_hits_total decompose requests answered from the result cache
# TYPE wavegate_cache_hits_total counter
wavegate_cache_hits_total 5
# HELP wavegate_cache_misses_total decompose requests that filled the result cache
# TYPE wavegate_cache_misses_total counter
wavegate_cache_misses_total 4
# HELP wavegate_cache_evictions_total cache entries evicted to hold the byte budget
# TYPE wavegate_cache_evictions_total counter
wavegate_cache_evictions_total 0
# HELP wavegate_tiled_total decompose requests served by distributed tiling
# TYPE wavegate_tiled_total counter
wavegate_tiled_total 1
# HELP wavegate_tile_stripes_total stripe sub-requests fanned out by tiling
# TYPE wavegate_tile_stripes_total counter
wavegate_tile_stripes_total 3
# HELP wavegate_backend_requests_total attempts routed at the backend
# TYPE wavegate_backend_requests_total counter
wavegate_backend_requests_total{backend="http://a.example:1"} 2
wavegate_backend_requests_total{backend="http://b.example:1"} 1
# HELP wavegate_backend_successes_total attempts that returned a usable response
# TYPE wavegate_backend_successes_total counter
wavegate_backend_successes_total{backend="http://a.example:1"} 2
wavegate_backend_successes_total{backend="http://b.example:1"} 0
# HELP wavegate_backend_failures_total attempts that failed retryably
# TYPE wavegate_backend_failures_total counter
wavegate_backend_failures_total{backend="http://a.example:1"} 0
wavegate_backend_failures_total{backend="http://b.example:1"} 1
# HELP wavegate_backend_retries_total retry attempts landed on the backend
# TYPE wavegate_backend_retries_total counter
wavegate_backend_retries_total{backend="http://a.example:1"} 0
wavegate_backend_retries_total{backend="http://b.example:1"} 1
# HELP wavegate_backend_hedges_launched_total hedge attempts fired at the backend
# TYPE wavegate_backend_hedges_launched_total counter
wavegate_backend_hedges_launched_total{backend="http://a.example:1"} 0
wavegate_backend_hedges_launched_total{backend="http://b.example:1"} 0
# HELP wavegate_backend_hedges_won_total hedge attempts that beat the primary
# TYPE wavegate_backend_hedges_won_total counter
wavegate_backend_hedges_won_total{backend="http://a.example:1"} 0
wavegate_backend_hedges_won_total{backend="http://b.example:1"} 0
# HELP wavegate_backend_breaker_opened_total breaker transitions into open
# TYPE wavegate_backend_breaker_opened_total counter
wavegate_backend_breaker_opened_total{backend="http://a.example:1"} 0
wavegate_backend_breaker_opened_total{backend="http://b.example:1"} 1
# HELP wavegate_backend_breaker_half_opened_total breaker transitions into half-open
# TYPE wavegate_backend_breaker_half_opened_total counter
wavegate_backend_breaker_half_opened_total{backend="http://a.example:1"} 0
wavegate_backend_breaker_half_opened_total{backend="http://b.example:1"} 0
# HELP wavegate_backend_breaker_closed_total breaker transitions into closed
# TYPE wavegate_backend_breaker_closed_total counter
wavegate_backend_breaker_closed_total{backend="http://a.example:1"} 0
wavegate_backend_breaker_closed_total{backend="http://b.example:1"} 0
# HELP wavegate_backend_probe_failures_total failed active health probes
# TYPE wavegate_backend_probe_failures_total counter
wavegate_backend_probe_failures_total{backend="http://a.example:1"} 0
wavegate_backend_probe_failures_total{backend="http://b.example:1"} 0
# HELP wavegate_latency_seconds admission-to-outcome latency
# TYPE wavegate_latency_seconds histogram
wavegate_latency_seconds_bucket{le="0.0001"} 0
wavegate_latency_seconds_bucket{le="0.00025"} 0
wavegate_latency_seconds_bucket{le="0.0005"} 0
wavegate_latency_seconds_bucket{le="0.001"} 0
wavegate_latency_seconds_bucket{le="0.0025"} 0
wavegate_latency_seconds_bucket{le="0.005"} 0
wavegate_latency_seconds_bucket{le="0.01"} 0
wavegate_latency_seconds_bucket{le="0.025"} 0
wavegate_latency_seconds_bucket{le="0.05"} 0
wavegate_latency_seconds_bucket{le="0.1"} 0
wavegate_latency_seconds_bucket{le="0.25"} 0
wavegate_latency_seconds_bucket{le="0.5"} 0
wavegate_latency_seconds_bucket{le="1"} 0
wavegate_latency_seconds_bucket{le="2.5"} 0
wavegate_latency_seconds_bucket{le="5"} 0
wavegate_latency_seconds_bucket{le="10"} 0
wavegate_latency_seconds_bucket{le="+Inf"} 0
wavegate_latency_seconds_sum 0
wavegate_latency_seconds_count 0
`
	if got := buf.String(); got != want {
		t.Errorf("exposition format drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
