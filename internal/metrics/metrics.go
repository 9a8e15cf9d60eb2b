// Package metrics holds the zero-dependency metrics primitives the serve
// layer and the gateway share: counters and fixed-bucket histograms with
// lock-free hot paths (one atomic add per counter event, two atomic adds
// plus one CAS loop per histogram observation), and the Prometheus text
// exposition writers both /metrics pages render them with, so the two
// services speak one dialect.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
//
//wavelint:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// LatencyBounds are the upper bucket edges, in seconds, of both
// services' request-latency histograms: 100 µs to 10 s.
var LatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

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
func (h *Histogram) Snapshot() HistogramSnapshot {
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

// PromCounter is one unlabelled counter series of an exposition page.
type PromCounter struct {
	Name, Help string
	Value      int64
}

// WritePromCounters renders counter series in the Prometheus text
// exposition format, in the order given.
func WritePromCounters(w io.Writer, counters []PromCounter) error {
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.Name, c.Help, c.Name, c.Name, c.Value); err != nil {
			return err
		}
	}
	return nil
}

// WritePromHistogram renders one histogram snapshot in the Prometheus
// text exposition format.
func WritePromHistogram(w io.Writer, name, help string, h HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Counts)-1]
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
		name, cum, name, h.Sum, name, h.Count)
	return err
}
