package serve

import (
	"io"

	"wavelethpc/internal/metrics"
)

// Metrics is the service's registry, built from the lock-free
// primitives of internal/metrics. All fields are updated on the request
// hot path with atomics only; Snapshot gives embedders a
// consistent-enough copy, which WriteProm renders for /metrics.
type Metrics struct {
	// Accepted counts requests admitted to the queue.
	Accepted metrics.Counter
	// Rejected counts requests refused with *OverloadError.
	Rejected metrics.Counter
	// Completed counts requests that finished with a pyramid.
	Completed metrics.Counter
	// Errors counts requests that failed during execution.
	Errors metrics.Counter
	// Expired counts requests whose context ended before execution.
	Expired metrics.Counter
	// Latency observes seconds from admission to completion.
	Latency *metrics.Histogram
	// QueueDepth observes the queue depth seen at each admission.
	QueueDepth *metrics.Histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		Latency:    metrics.NewHistogram(metrics.LatencyBounds),
		QueueDepth: metrics.NewHistogram([]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
}

// Snapshot is a point-in-time copy of every metric.
type Snapshot struct {
	Accepted   int64                     `json:"accepted"`
	Rejected   int64                     `json:"rejected"`
	Completed  int64                     `json:"completed"`
	Errors     int64                     `json:"errors"`
	Expired    int64                     `json:"expired"`
	Latency    metrics.HistogramSnapshot `json:"latency_seconds"`
	QueueDepth metrics.HistogramSnapshot `json:"queue_depth"`
}

// Snapshot copies the registry.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Accepted:   m.Accepted.Value(),
		Rejected:   m.Rejected.Value(),
		Completed:  m.Completed.Value(),
		Errors:     m.Errors.Value(),
		Expired:    m.Expired.Value(),
		Latency:    m.Latency.Snapshot(),
		QueueDepth: m.QueueDepth.Snapshot(),
	}
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format under the waveserve_ namespace.
func (s Snapshot) WriteProm(w io.Writer) error {
	if err := metrics.WritePromCounters(w, []metrics.PromCounter{
		{Name: "waveserve_accepted_total", Help: "requests admitted to the queue", Value: s.Accepted},
		{Name: "waveserve_rejected_total", Help: "requests rejected with OverloadError", Value: s.Rejected},
		{Name: "waveserve_completed_total", Help: "requests completed successfully", Value: s.Completed},
		{Name: "waveserve_errors_total", Help: "requests failed during execution", Value: s.Errors},
		{Name: "waveserve_expired_total", Help: "requests expired before execution", Value: s.Expired},
	}); err != nil {
		return err
	}
	if err := metrics.WritePromHistogram(w, "waveserve_latency_seconds",
		"admission-to-completion latency", s.Latency); err != nil {
		return err
	}
	return metrics.WritePromHistogram(w, "waveserve_queue_depth",
		"queue depth observed at admission", s.QueueDepth)
}
