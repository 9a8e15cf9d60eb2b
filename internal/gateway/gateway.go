// Package gateway is the resilient multi-backend shard router in front
// of N waveserved decomposition services: the piece that turns the
// single-process serve layer into a survivable fleet. It routes each
// request by a shape+bank-aware rendezvous hash so every backend's
// pooled Decomposers stay hot for the traffic classes they already
// serve, and wraps the fan-out in the full resilience stack:
//
//   - per-backend health: active /readyz probes plus passive error-rate
//     tracking, feeding a three-state circuit breaker
//     (closed -> open -> half-open);
//   - bounded retries with exponential backoff and seeded full jitter
//     (a SplitMix64 counter stream in internal/fault's discipline —
//     never math/rand, which wavelint forbids here);
//   - deadline-budget propagation: the client's remaining deadline is
//     split across the attempts still available, so one blackholed
//     backend can burn at most its share and the retries that follow
//     still have time to succeed;
//   - optional hedged requests for tail latency: a second attempt on the
//     next-ranked backend when the first outlives HedgeAfter, first
//     usable response wins;
//   - graceful drain: Shutdown stops admission (typed ErrDraining /
//     HTTP 503), finishes in-flight requests, then returns.
//
// When no backend can serve — every breaker open, or every attempt dead
// at the transport layer — requests fail fast with a typed
// *NoBackendsError instead of hanging. cmd/wavegate wraps the package in
// a daemon; the chaos suite drives it against a seeded in-process fault
// proxy and asserts zero client-visible errors while any backend lives.
package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wavelethpc/internal/fault"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/wavelet"
)

// Config parameterizes a Gateway. Zero values select production
// defaults; invalid values are rejected by New with a wrapped
// *wavelet.UsageError.
type Config struct {
	// Backends are the base URLs of the waveserved processes fronted by
	// the gateway (e.g. "http://127.0.0.1:9001"). At least one is
	// required.
	Backends []string
	// Seed keys the retry-jitter stream and the rendezvous routing salt.
	// A pinned seed replays a pinned backoff schedule.
	Seed uint64
	// MaxRetries bounds attempts beyond the first (0 = 3; negative
	// rejected).
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential full-jitter
	// delay before retry r: unit() * min(MaxBackoff, BaseBackoff<<(r-1)).
	// Defaults 5ms and 250ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptFloor is the minimum per-attempt timeout carved from the
	// deadline budget (default 50ms).
	AttemptFloor time.Duration
	// HedgeAfter launches a hedged second attempt on the next-ranked
	// backend when the first has not answered within this duration.
	// 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerFailures opens a backend's breaker after this many
	// consecutive failures (default 5).
	BreakerFailures int
	// BreakerErrorRate opens the breaker when the failure fraction over
	// the last breakerWindow reaches it with at least breakerMinSamples
	// outcomes (default 0.5).
	BreakerErrorRate float64
	// BreakerCooldown is how long an open breaker refuses before
	// admitting a half-open trial (default 1s).
	BreakerCooldown time.Duration
	// ProbeInterval is the active health-check period (0 = 500ms;
	// negative disables the background prober — ProbeOnce still works).
	ProbeInterval time.Duration
	// CacheBytes bounds the content-addressed result cache in bytes of
	// cached response payload (0 disables caching). Identical decompose
	// requests — same image bytes, bank, levels, tol, and output, in any
	// wire form — are answered from the cache, and concurrent identical
	// requests collapse into one backend round trip (singleflight).
	CacheBytes int64
	// TileRows enables distributed tile decomposition: a decompose
	// request whose image has at least TileRows rows is split into row
	// stripes with filter-length halos, fanned out across the backends,
	// and stitched bit-identically to the single-node transform
	// (0 disables tiling). The tiling path assumes backends run the
	// default periodic extension.
	TileRows int
	// TileStripes is how many row stripes a tiled image splits into
	// (0 = one per backend; capped by the image's decimated height).
	TileStripes int
	// Transport performs the backend round trips; nil selects a pooled
	// http.Transport. The chaos suite injects its fault proxy here.
	Transport http.RoundTripper
	// Clock injects a time source for tests; nil uses the wall clock.
	Clock func() time.Time
	// Sleep injects the inter-retry wait for tests; nil sleeps for real
	// (honoring context cancellation).
	Sleep func(ctx context.Context, d time.Duration)
}

// Fixed breaker and probe settings.
const (
	// breakerMinSamples is how many outcomes the error-rate window must
	// hold before BreakerErrorRate can open a breaker.
	breakerMinSamples = 20
	// breakerWindow is the span of the error-rate window.
	breakerWindow = 2 * time.Second
	// probePath is fetched on each backend: /readyz, so backends report
	// saturation before hard rejection.
	probePath = "/readyz"
	// probeTimeout bounds one probe.
	probeTimeout = 250 * time.Millisecond
)

// RouteKey is the routing affinity of one request: requests sharing a
// key always rank backends identically, so a backend keeps serving the
// (shape, bank, levels) classes whose Decomposer pools it has already
// warmed.
type RouteKey struct {
	Rows, Cols int
	Bank       string
	Levels     int
	// Shard decorrelates the rendezvous ranking of otherwise identical
	// keys, so the tiling path's same-shape stripes spread across the
	// fleet instead of piling onto one backend. Zero (the default)
	// leaves the hash exactly as it was before sharding existed.
	Shard int
}

// routeSalt decorrelates routing hashes from the jitter stream.
const routeSalt = 0x2545f4914f6cdd1d

// hash folds the key into the rendezvous hash input.
func (k RouteKey) hash(seed uint64) uint64 {
	h := fault.SplitMix64(seed ^ routeSalt)
	h = fault.SplitMix64(h ^ uint64(k.Rows)*0x9e3779b97f4a7c15)
	h = fault.SplitMix64(h ^ uint64(k.Cols)*0xbf58476d1ce4e5b9)
	h = fault.SplitMix64(h ^ uint64(k.Levels)*0x94d049bb133111eb)
	for i := 0; i < len(k.Bank); i++ {
		h = fault.SplitMix64(h ^ uint64(k.Bank[i]))
	}
	if k.Shard != 0 {
		h = fault.SplitMix64(h ^ uint64(k.Shard)*0xd6e8feb86659fd93)
	}
	return h
}

// Request is one routed job. Body must be replayable (a byte slice, not
// a stream) because retries and hedges resend it.
type Request struct {
	// Method defaults to POST when a body is present, GET otherwise.
	Method string
	// Path is the backend path, e.g. "/v1/decompose".
	Path string
	// Query is forwarded verbatim.
	Query url.Values
	// Body is the request payload (may be nil).
	Body []byte
	// ContentType is forwarded as the Content-Type header when non-empty,
	// so backends can distinguish the proto wire forms (JSON, raster,
	// legacy PGM).
	ContentType string
	// Key is the routing affinity; the zero key routes by request
	// sequence number (spreading keyless traffic evenly).
	Key RouteKey
}

// Result is the backend response the gateway settled on.
type Result struct {
	// Status is the backend's HTTP status.
	Status int
	// Header is the backend's response header.
	Header http.Header
	// Body is the full response payload.
	Body []byte
	// Backend names the backend that produced the response.
	Backend string
	// Attempts is how many attempts (including hedges) the request made.
	Attempts int
}

// backend is one routed target and its health state.
type backend struct {
	name string
	base *url.URL
	hash uint64
	br   *breaker
	bm   *BackendMetrics
}

// Gateway routes requests across the configured backends. Create with
// New; it is safe for concurrent use.
type Gateway struct {
	cfg       Config
	now       func() time.Time
	sleep     sleepFunc
	transport http.RoundTripper
	backends  []*backend
	metrics   *Metrics
	jit       *jitter
	reqSeq    atomic.Uint64
	cache     *resultCache

	mu       sync.RWMutex // guards draining vs. admission
	draining bool
	wg       sync.WaitGroup

	probeStop chan struct{}
	probeDone chan struct{}
}

func badGatewayConfig(format string, args ...any) error {
	return fmt.Errorf("gateway: invalid config: %w",
		&wavelet.UsageError{Op: "gateway.New", Detail: fmt.Sprintf(format, args...)})
}

// New validates cfg, builds the backend set, and starts the active
// prober (unless ProbeInterval is negative).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, badGatewayConfig("no backends")
	}
	if cfg.MaxRetries < 0 {
		return nil, badGatewayConfig("MaxRetries = %d, want >= 0", cfg.MaxRetries)
	}
	if cfg.HedgeAfter < 0 {
		return nil, badGatewayConfig("HedgeAfter = %v, want >= 0", cfg.HedgeAfter)
	}
	if cfg.BreakerErrorRate < 0 || cfg.BreakerErrorRate > 1 {
		return nil, badGatewayConfig("BreakerErrorRate = %g outside [0, 1]", cfg.BreakerErrorRate)
	}
	if cfg.CacheBytes < 0 {
		return nil, badGatewayConfig("CacheBytes = %d, want >= 0", cfg.CacheBytes)
	}
	if cfg.TileRows < 0 {
		return nil, badGatewayConfig("TileRows = %d, want >= 0", cfg.TileRows)
	}
	if cfg.TileStripes < 0 {
		return nil, badGatewayConfig("TileStripes = %d, want >= 0", cfg.TileStripes)
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = 5 * time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 250 * time.Millisecond
	}
	if cfg.AttemptFloor == 0 {
		cfg.AttemptFloor = 50 * time.Millisecond
	}
	if cfg.BreakerFailures == 0 {
		cfg.BreakerFailures = 5
	}
	if cfg.BreakerErrorRate == 0 {
		cfg.BreakerErrorRate = 0.5
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	g := &Gateway{
		cfg:       cfg,
		now:       cfg.Clock,
		sleep:     cfg.Sleep,
		transport: cfg.Transport,
		jit:       &jitter{seed: cfg.Seed},
	}
	if g.now == nil {
		g.now = time.Now
	}
	if g.sleep == nil {
		g.sleep = realSleep
	}
	if g.transport == nil {
		g.transport = &http.Transport{MaxIdleConnsPerHost: 64}
	}
	names := make([]string, len(cfg.Backends))
	seen := map[string]bool{}
	for i, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, badGatewayConfig("backend %q is not an absolute URL", raw)
		}
		if seen[u.String()] {
			return nil, badGatewayConfig("duplicate backend %q", raw)
		}
		seen[u.String()] = true
		names[i] = u.String()
	}
	g.metrics = newGatewayMetrics(names)
	if cfg.CacheBytes > 0 {
		g.cache = newResultCache(cfg.CacheBytes, g.metrics)
	}
	bcfg := breakerConfig{
		failures:   cfg.BreakerFailures,
		errorRate:  cfg.BreakerErrorRate,
		minSamples: breakerMinSamples,
		window:     breakerWindow,
		cooldown:   cfg.BreakerCooldown,
	}
	for _, name := range names {
		u, _ := url.Parse(name)
		bm := g.metrics.Backend(name)
		b := &backend{
			name: name,
			base: u,
			hash: hashString(name),
			bm:   bm,
		}
		b.br = newBreaker(bcfg, g.now, func(from, to BreakerState) {
			switch to {
			case BreakerOpen:
				bm.BreakerOpened.Add(1)
			case BreakerHalfOpen:
				bm.BreakerHalfOpened.Add(1)
			case BreakerClosed:
				bm.BreakerClosed.Add(1)
			}
		})
		g.backends = append(g.backends, b)
	}
	if cfg.ProbeInterval > 0 {
		g.probeStop = make(chan struct{})
		g.probeDone = make(chan struct{})
		go g.probeLoop()
	}
	return g, nil
}

// hashString folds a backend name into a rendezvous hash input.
func hashString(s string) uint64 {
	h := fault.SplitMix64(uint64(len(s)) ^ 0xff51afd7ed558ccd)
	for i := 0; i < len(s); i++ {
		h = fault.SplitMix64(h ^ uint64(s[i]))
	}
	return h
}

// Metrics returns the gateway's registry (live).
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Backends returns the normalized backend names in configuration order.
func (g *Gateway) Backends() []string {
	out := make([]string, len(g.backends))
	for i, b := range g.backends {
		out[i] = b.name
	}
	return out
}

// BreakerStates reports each backend's current breaker state, keyed by
// backend name.
func (g *Gateway) BreakerStates() map[string]BreakerState {
	out := make(map[string]BreakerState, len(g.backends))
	for _, b := range g.backends {
		out[b.name] = b.br.currentState()
	}
	return out
}

// ranked orders the backends by rendezvous score for the key: the
// highest-random-weight ordering means removing one backend only remaps
// the keys it owned, so the others' Decomposer pools stay hot.
func (g *Gateway) ranked(key uint64) []*backend {
	out := append([]*backend(nil), g.backends...)
	sort.Slice(out, func(i, j int) bool {
		si := fault.SplitMix64(key ^ out[i].hash)
		sj := fault.SplitMix64(key ^ out[j].hash)
		if si != sj {
			return si > sj
		}
		return out[i].name < out[j].name
	})
	return out
}

// pick returns the best-ranked backend whose breaker admits traffic,
// skipping those in tried. Nil when none qualifies.
func (g *Gateway) pick(key uint64, tried map[*backend]bool) *backend {
	for _, b := range g.ranked(key) {
		if tried[b] {
			continue
		}
		if b.br.allow() {
			return b
		}
	}
	return nil
}

// Do routes one request with retries, rerouting, hedging, and deadline
// budgeting. It returns the backend response (which may be a forwarded
// backend error status) or a typed gateway error: ErrDraining once
// Shutdown began, *NoBackendsError when nothing could serve, or the
// context's error.
func (g *Gateway) Do(ctx context.Context, req *Request) (*Result, error) {
	g.mu.RLock()
	if g.draining {
		g.mu.RUnlock()
		g.metrics.Drained.Add(1)
		return nil, ErrDraining
	}
	g.wg.Add(1)
	g.mu.RUnlock()
	defer g.wg.Done()
	g.metrics.Admitted.Add(1)
	start := g.now()
	res, err := g.route(ctx, req)
	g.metrics.Latency.Observe(g.now().Sub(start).Seconds())
	if err == nil {
		g.metrics.Completed.Add(1)
	}
	return res, err
}

// route is the retry loop behind Do.
func (g *Gateway) route(ctx context.Context, req *Request) (*Result, error) {
	bud := newBudget(ctx, g.now)
	key := req.Key.hash(g.cfg.Seed)
	if req.Key == (RouteKey{}) {
		key = fault.SplitMix64(g.cfg.Seed ^ g.reqSeq.Add(1))
	}
	maxAttempts := g.cfg.MaxRetries + 1
	tried := map[*backend]bool{}
	var lastErr error
	var last5xx *Result
	attempts := 0
	budgetCut := false
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := g.pick(key, tried)
		if b == nil && len(tried) > 0 {
			// Every backend was tried and failed this request; retry
			// budget remains, so re-admit previously failed backends.
			clear(tried)
			b = g.pick(key, tried)
		}
		if b == nil {
			g.metrics.NoBackends.Add(1)
			return nil, &NoBackendsError{Configured: len(g.backends), Tried: attempts, Last: lastErr}
		}
		tried[b] = true
		if attempt > 1 {
			b.bm.Retries.Add(1)
		}
		timeout := bud.attemptTimeout(maxAttempts-attempt+1, g.cfg.AttemptFloor)
		res, err := g.attempt(ctx, b, req, key, tried, timeout)
		attempts++
		if err == nil && res.Status < 500 {
			res.Attempts = attempts
			return res, nil
		}
		if errors.Is(err, errResponseTooLarge) {
			// Every backend would answer alike: fail now, not after
			// the retries.
			return nil, err
		}
		if err != nil {
			lastErr = err
		} else {
			last5xx = res
		}
		if attempt == maxAttempts {
			break
		}
		sleep := backoff(attempt, g.cfg.BaseBackoff, g.cfg.MaxBackoff, g.jit.unit())
		if !bud.allows(sleep, g.cfg.AttemptFloor) {
			g.metrics.BudgetExhausted.Add(1)
			budgetCut = true
			break
		}
		g.sleep(ctx, sleep)
	}
	if last5xx != nil {
		// The fleet answered, just badly: forward the backend's own
		// error response instead of masking it.
		last5xx.Attempts = attempts
		return last5xx, nil
	}
	if budgetCut {
		return nil, &BudgetError{Attempts: attempts, Last: lastErr}
	}
	g.metrics.NoBackends.Add(1)
	return nil, &NoBackendsError{Configured: len(g.backends), Tried: attempts, Last: lastErr}
}

// attempt runs one (possibly hedged) try against b. The tried set is
// shared with the retry loop: a launched hedge marks its backend tried
// so a later retry reroutes somewhere fresh.
func (g *Gateway) attempt(ctx context.Context, b *backend, req *Request, key uint64, tried map[*backend]bool, timeout time.Duration) (*Result, error) {
	if g.cfg.HedgeAfter <= 0 {
		return g.roundTrip(ctx, b, req, timeout, false)
	}
	type out struct {
		res    *Result
		err    error
		hedged bool
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan out, 2)
	launch := func(b *backend, hedged bool) {
		go func() {
			r, e := g.roundTrip(actx, b, req, timeout, hedged)
			ch <- out{res: r, err: e, hedged: hedged}
		}()
	}
	launch(b, false)
	outstanding := 1
	timer := time.NewTimer(g.cfg.HedgeAfter)
	defer timer.Stop()
	timerC := timer.C
	var lastErr error
	var last5xx *Result
	for {
		select {
		case o := <-ch:
			outstanding--
			if o.err == nil && o.res.Status < 500 {
				if o.hedged {
					if bm := g.metrics.Backend(o.res.Backend); bm != nil {
						bm.HedgesWon.Add(1)
					}
				}
				cancel()
				return o.res, nil
			}
			if o.err != nil {
				lastErr = o.err
			} else {
				last5xx = o.res
			}
			if outstanding == 0 {
				if last5xx != nil {
					return last5xx, nil
				}
				return nil, lastErr
			}
		case <-timerC:
			timerC = nil
			if hb := g.pick(key, tried); hb != nil {
				tried[hb] = true
				launch(hb, true)
				outstanding++
			}
		}
	}
}

// roundTrip performs one HTTP attempt against b, reporting the outcome
// to the breaker and the backend's counters. An attempt canceled by the
// gateway itself (a losing hedge) reports nothing: the backend did not
// fail, the race just ended.
func (g *Gateway) roundTrip(ctx context.Context, b *backend, req *Request, timeout time.Duration, hedged bool) (*Result, error) {
	b.bm.Requests.Add(1)
	if hedged {
		b.bm.HedgesLaunched.Add(1)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	method := req.Method
	if method == "" {
		if len(req.Body) > 0 {
			method = http.MethodPost
		} else {
			method = http.MethodGet
		}
	}
	u := *b.base
	u.Path = req.Path
	u.RawQuery = req.Query.Encode()
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hreq, err := http.NewRequestWithContext(actx, method, u.String(), body)
	if err != nil {
		b.br.cancelTrial()
		return nil, fmt.Errorf("gateway: building request for %s: %w", b.name, err)
	}
	if req.ContentType != "" {
		hreq.Header.Set("Content-Type", req.ContentType)
	}
	resp, err := g.transport.RoundTrip(hreq)
	if err != nil {
		if ctx.Err() != nil && actx.Err() != context.DeadlineExceeded {
			// Canceled from above (client gone or hedge lost): not the
			// backend's fault.
			b.br.cancelTrial()
			return nil, fmt.Errorf("gateway: attempt canceled: %w", ctx.Err())
		}
		b.br.reportFailure()
		b.bm.Failures.Add(1)
		return nil, fmt.Errorf("gateway: backend %s: %w", b.name, err)
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, proto.MaxResponseBytes+1))
	resp.Body.Close()
	if err != nil {
		b.br.reportFailure()
		b.bm.Failures.Add(1)
		return nil, fmt.Errorf("gateway: reading %s response: %w", b.name, err)
	}
	if int64(len(payload)) > proto.MaxResponseBytes {
		// The backend answered, so its health stands; the response is
		// what cannot be relayed.
		b.br.reportSuccess()
		b.bm.Successes.Add(1)
		return nil, fmt.Errorf("gateway: backend %s: %w", b.name, errResponseTooLarge)
	}
	res := &Result{Status: resp.StatusCode, Header: resp.Header, Body: payload, Backend: b.name}
	if resp.StatusCode >= 500 {
		b.br.reportFailure()
		b.bm.Failures.Add(1)
		return res, nil
	}
	b.br.reportSuccess()
	b.bm.Successes.Add(1)
	return res, nil
}

// ProbeOnce runs one synchronous health-check round: every backend's
// probePath is fetched and the result fed to its breaker. Exposed so
// operators (and the deterministic chaos suite) can drive probing
// without the background loop.
func (g *Gateway) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			g.probe(ctx, b)
		}(b)
	}
	wg.Wait()
}

func (g *Gateway) probe(ctx context.Context, b *backend) {
	actx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	u := *b.base
	u.Path = probePath
	hreq, err := http.NewRequestWithContext(actx, http.MethodGet, u.String(), nil)
	if err != nil {
		b.bm.ProbeFailures.Add(1)
		b.br.probeFailure()
		return
	}
	resp, err := g.transport.RoundTrip(hreq)
	if err != nil {
		b.bm.ProbeFailures.Add(1)
		b.br.probeFailure()
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.bm.ProbeFailures.Add(1)
		b.br.probeFailure()
		return
	}
	b.br.probeSuccess()
}

// probeLoop runs ProbeOnce every ProbeInterval until Shutdown.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-t.C:
			g.ProbeOnce(context.Background())
		}
	}
}

// Draining reports whether Shutdown has begun.
func (g *Gateway) Draining() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.draining
}

// Shutdown drains the gateway: admission stops (Do returns ErrDraining,
// the HTTP surface 503s), in-flight requests finish, the prober exits.
// It returns nil once drained, or the context's error if draining
// outlasts it (in-flight requests keep finishing regardless). Safe to
// call more than once.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	first := !g.draining
	g.draining = true
	g.mu.Unlock()
	if first && g.probeStop != nil {
		close(g.probeStop)
	}
	if g.probeDone != nil {
		<-g.probeDone
	}
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
