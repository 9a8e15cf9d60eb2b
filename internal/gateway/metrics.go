package gateway

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"wavelethpc/internal/metrics"
)

// BackendMetrics are one backend's per-target counters, updated with
// atomics on the request path (internal/metrics' lock-free primitives).
type BackendMetrics struct {
	// Requests counts attempts routed at the backend (including hedges
	// and retries).
	Requests metrics.Counter
	// Successes counts attempts that returned a usable response.
	Successes metrics.Counter
	// Failures counts attempts that failed retryably (transport error or
	// 5xx).
	Failures metrics.Counter
	// Retries counts attempts beyond a request's first that landed on
	// this backend.
	Retries metrics.Counter
	// HedgesLaunched counts hedge attempts fired at this backend.
	HedgesLaunched metrics.Counter
	// HedgesWon counts hedge attempts that beat the primary.
	HedgesWon metrics.Counter
	// BreakerOpened/BreakerHalfOpened/BreakerClosed count transitions
	// into each breaker state.
	BreakerOpened     metrics.Counter
	BreakerHalfOpened metrics.Counter
	BreakerClosed     metrics.Counter
	// ProbeFailures counts failed active health probes.
	ProbeFailures metrics.Counter
}

// Metrics is the gateway's registry: request-level counters plus a
// per-backend block keyed by backend name.
type Metrics struct {
	// Admitted counts requests accepted for routing.
	Admitted metrics.Counter
	// Completed counts requests answered with a backend response.
	Completed metrics.Counter
	// Drained counts requests refused because shutdown had begun.
	Drained metrics.Counter
	// NoBackends counts requests failed with *NoBackendsError.
	NoBackends metrics.Counter
	// BudgetExhausted counts requests cut short by the deadline budget.
	BudgetExhausted metrics.Counter
	// CacheHits counts decompose requests answered from the
	// content-addressed result cache (including singleflight followers).
	CacheHits metrics.Counter
	// CacheMisses counts decompose requests that had to fill the cache.
	CacheMisses metrics.Counter
	// CacheEvictions counts entries evicted to hold the byte budget.
	CacheEvictions metrics.Counter
	// TiledRequests counts decompose requests served by the distributed
	// tiling path.
	TiledRequests metrics.Counter
	// TileStripes counts stripe sub-requests fanned out by tiling.
	TileStripes metrics.Counter
	// Latency observes seconds from admission to final outcome.
	Latency *metrics.Histogram

	mu       sync.Mutex
	backends map[string]*BackendMetrics
	order    []string
}

func newGatewayMetrics(backendNames []string) *Metrics {
	m := &Metrics{
		Latency:  metrics.NewHistogram(metrics.LatencyBounds),
		backends: map[string]*BackendMetrics{},
	}
	for _, name := range backendNames {
		if _, ok := m.backends[name]; !ok {
			m.backends[name] = &BackendMetrics{}
			m.order = append(m.order, name)
		}
	}
	sort.Strings(m.order)
	return m
}

// Backend returns the named backend's counter block (nil for a name the
// gateway does not front).
func (m *Metrics) Backend(name string) *BackendMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.backends[name]
}

// backendCounter is one exposed per-backend series.
type backendCounter struct {
	name, help string
	value      func(*BackendMetrics) int64
}

// backendSeries is the fixed exposition order of the per-backend
// counters; the format-pinning test locks it.
var backendSeries = []backendCounter{
	{"wavegate_backend_requests_total", "attempts routed at the backend", func(b *BackendMetrics) int64 { return b.Requests.Value() }},
	{"wavegate_backend_successes_total", "attempts that returned a usable response", func(b *BackendMetrics) int64 { return b.Successes.Value() }},
	{"wavegate_backend_failures_total", "attempts that failed retryably", func(b *BackendMetrics) int64 { return b.Failures.Value() }},
	{"wavegate_backend_retries_total", "retry attempts landed on the backend", func(b *BackendMetrics) int64 { return b.Retries.Value() }},
	{"wavegate_backend_hedges_launched_total", "hedge attempts fired at the backend", func(b *BackendMetrics) int64 { return b.HedgesLaunched.Value() }},
	{"wavegate_backend_hedges_won_total", "hedge attempts that beat the primary", func(b *BackendMetrics) int64 { return b.HedgesWon.Value() }},
	{"wavegate_backend_breaker_opened_total", "breaker transitions into open", func(b *BackendMetrics) int64 { return b.BreakerOpened.Value() }},
	{"wavegate_backend_breaker_half_opened_total", "breaker transitions into half-open", func(b *BackendMetrics) int64 { return b.BreakerHalfOpened.Value() }},
	{"wavegate_backend_breaker_closed_total", "breaker transitions into closed", func(b *BackendMetrics) int64 { return b.BreakerClosed.Value() }},
	{"wavegate_backend_probe_failures_total", "failed active health probes", func(b *BackendMetrics) int64 { return b.ProbeFailures.Value() }},
}

// WriteProm renders the registry in the Prometheus text exposition
// format under the wavegate_ namespace. Per-backend series carry a
// backend="name" label and are emitted in sorted-name order so the
// output is deterministic.
func (m *Metrics) WriteProm(w io.Writer) error {
	if err := metrics.WritePromCounters(w, []metrics.PromCounter{
		{Name: "wavegate_admitted_total", Help: "requests accepted for routing", Value: m.Admitted.Value()},
		{Name: "wavegate_completed_total", Help: "requests answered with a backend response", Value: m.Completed.Value()},
		{Name: "wavegate_drained_total", Help: "requests refused during drain", Value: m.Drained.Value()},
		{Name: "wavegate_no_backends_total", Help: "requests failed with NoBackendsError", Value: m.NoBackends.Value()},
		{Name: "wavegate_budget_exhausted_total", Help: "requests cut short by the deadline budget", Value: m.BudgetExhausted.Value()},
		{Name: "wavegate_cache_hits_total", Help: "decompose requests answered from the result cache", Value: m.CacheHits.Value()},
		{Name: "wavegate_cache_misses_total", Help: "decompose requests that filled the result cache", Value: m.CacheMisses.Value()},
		{Name: "wavegate_cache_evictions_total", Help: "cache entries evicted to hold the byte budget", Value: m.CacheEvictions.Value()},
		{Name: "wavegate_tiled_total", Help: "decompose requests served by distributed tiling", Value: m.TiledRequests.Value()},
		{Name: "wavegate_tile_stripes_total", Help: "stripe sub-requests fanned out by tiling", Value: m.TileStripes.Value()},
	}); err != nil {
		return err
	}
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	blocks := make([]*BackendMetrics, len(order))
	for i, name := range order {
		blocks[i] = m.backends[name]
	}
	m.mu.Unlock()
	for _, s := range backendSeries {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", s.name, s.help, s.name); err != nil {
			return err
		}
		for i, name := range order {
			if _, err := fmt.Fprintf(w, "%s{backend=%q} %d\n", s.name, name, s.value(blocks[i])); err != nil {
				return err
			}
		}
	}
	return metrics.WritePromHistogram(w, "wavegate_latency_seconds",
		"admission-to-outcome latency", m.Latency.Snapshot())
}
