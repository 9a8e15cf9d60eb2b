package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Zero-dependency metrics: counters and fixed-bucket histograms with
// lock-free hot paths (one atomic add per counter event, two atomic adds
// plus one CAS loop per histogram observation). Snapshot() gives
// embedders a consistent-enough copy; WriteProm renders the Prometheus
// text exposition format for the /metrics handler.

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
//
//wavelint:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-boundary cumulative-bucket histogram. Bounds are
// upper bucket edges in ascending order; an implicit +Inf bucket catches
// the tail. Observation is lock-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, buckets: make([]atomic.Int64, len(cp)+1)}
}

// Observe records one sample.
//
//wavelint:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts holds
// one entry per bound plus the +Inf tail. Because buckets are read one
// atomic at a time while observations continue, a snapshot taken under
// load may be off by the handful of events that landed mid-copy; taken
// at rest it is exact.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot() }

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Metrics is the service's registry. All fields are updated on the
// request hot path with atomics only.
type Metrics struct {
	// Accepted counts requests admitted to the queue.
	Accepted Counter
	// Rejected counts requests refused with *OverloadError.
	Rejected Counter
	// Completed counts requests that finished with a pyramid.
	Completed Counter
	// Errors counts requests that failed during execution.
	Errors Counter
	// Expired counts requests whose context ended before execution.
	Expired Counter
	// Latency observes seconds from admission to completion.
	Latency *Histogram
	// QueueDepth observes the queue depth seen at each admission.
	QueueDepth *Histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		Latency: NewHistogram([]float64{
			0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
			0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
		}),
		QueueDepth: NewHistogram([]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
}

// Snapshot is a point-in-time copy of every metric.
type Snapshot struct {
	Accepted   int64             `json:"accepted"`
	Rejected   int64             `json:"rejected"`
	Completed  int64             `json:"completed"`
	Errors     int64             `json:"errors"`
	Expired    int64             `json:"expired"`
	Latency    HistogramSnapshot `json:"latency_seconds"`
	QueueDepth HistogramSnapshot `json:"queue_depth"`
}

// Snapshot copies the registry.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Accepted:   m.Accepted.Value(),
		Rejected:   m.Rejected.Value(),
		Completed:  m.Completed.Value(),
		Errors:     m.Errors.Value(),
		Expired:    m.Expired.Value(),
		Latency:    m.Latency.snapshot(),
		QueueDepth: m.QueueDepth.snapshot(),
	}
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format under the waveserve_ namespace.
func (s Snapshot) WriteProm(w io.Writer) error {
	counters := []struct {
		name, help string
		v          int64
	}{
		{"waveserve_accepted_total", "requests admitted to the queue", s.Accepted},
		{"waveserve_rejected_total", "requests rejected with OverloadError", s.Rejected},
		{"waveserve_completed_total", "requests completed successfully", s.Completed},
		{"waveserve_errors_total", "requests failed during execution", s.Errors},
		{"waveserve_expired_total", "requests expired before execution", s.Expired},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.v); err != nil {
			return err
		}
	}
	hists := []struct {
		name, help string
		h          HistogramSnapshot
	}{
		{"waveserve_latency_seconds", "admission-to-completion latency", s.Latency},
		{"waveserve_queue_depth", "queue depth observed at admission", s.QueueDepth},
	}
	for _, h := range hists {
		if err := WritePromHistogram(w, h.name, h.help, h.h); err != nil {
			return err
		}
	}
	return nil
}

// WritePromHistogram renders one histogram snapshot in the Prometheus
// text exposition format; shared with the gateway's metrics page so both
// services speak one dialect.
func WritePromHistogram(w io.Writer, name, help string, h HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Counts)-1]
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
		name, cum, name, h.Sum, name, h.Count)
	return err
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }
