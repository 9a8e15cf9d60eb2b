package serve

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value = %d, want 8000", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	// Buckets are upper-inclusive: 0.5 and 1 land in le=1; 1.5 in le=2;
	// 3 in le=4; 100 in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("Counts[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 106 {
		t.Errorf("Sum = %g, want 106", s.Sum)
	}
}

func TestHistogramObserveConcurrent(t *testing.T) {
	h := NewHistogram([]float64{10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != 4000 || s.Counts[0] != 4000 {
		t.Errorf("Count/Counts[0] = %d/%d, want 4000/4000", s.Count, s.Counts[0])
	}
	if s.Sum != 4000 {
		t.Errorf("Sum = %g, want 4000 (CAS accumulation lost updates)", s.Sum)
	}
}

// TestWritePromFormat pins the /metrics exposition byte for byte, so
// adding, renaming or dropping a series is a deliberate golden change.
func TestWritePromFormat(t *testing.T) {
	m := newMetrics()
	m.Accepted.Add(5)
	m.Rejected.Add(1)
	m.Completed.Add(3)
	m.Errors.Add(1)
	m.Expired.Add(1)
	m.Latency.Observe(0.002)
	m.Latency.Observe(0.3)
	m.Latency.Observe(12)
	m.QueueDepth.Observe(0)
	m.QueueDepth.Observe(3)

	var b strings.Builder
	if err := m.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP waveserve_accepted_total requests admitted to the queue
# TYPE waveserve_accepted_total counter
waveserve_accepted_total 5
# HELP waveserve_rejected_total requests rejected with OverloadError
# TYPE waveserve_rejected_total counter
waveserve_rejected_total 1
# HELP waveserve_completed_total requests completed successfully
# TYPE waveserve_completed_total counter
waveserve_completed_total 3
# HELP waveserve_errors_total requests failed during execution
# TYPE waveserve_errors_total counter
waveserve_errors_total 1
# HELP waveserve_expired_total requests expired before execution
# TYPE waveserve_expired_total counter
waveserve_expired_total 1
# HELP waveserve_latency_seconds admission-to-completion latency
# TYPE waveserve_latency_seconds histogram
waveserve_latency_seconds_bucket{le="0.0001"} 0
waveserve_latency_seconds_bucket{le="0.00025"} 0
waveserve_latency_seconds_bucket{le="0.0005"} 0
waveserve_latency_seconds_bucket{le="0.001"} 0
waveserve_latency_seconds_bucket{le="0.0025"} 1
waveserve_latency_seconds_bucket{le="0.005"} 1
waveserve_latency_seconds_bucket{le="0.01"} 1
waveserve_latency_seconds_bucket{le="0.025"} 1
waveserve_latency_seconds_bucket{le="0.05"} 1
waveserve_latency_seconds_bucket{le="0.1"} 1
waveserve_latency_seconds_bucket{le="0.25"} 1
waveserve_latency_seconds_bucket{le="0.5"} 2
waveserve_latency_seconds_bucket{le="1"} 2
waveserve_latency_seconds_bucket{le="2.5"} 2
waveserve_latency_seconds_bucket{le="5"} 2
waveserve_latency_seconds_bucket{le="10"} 2
waveserve_latency_seconds_bucket{le="+Inf"} 3
waveserve_latency_seconds_sum 12.302
waveserve_latency_seconds_count 3
# HELP waveserve_queue_depth queue depth observed at admission
# TYPE waveserve_queue_depth histogram
waveserve_queue_depth_bucket{le="0"} 1
waveserve_queue_depth_bucket{le="1"} 1
waveserve_queue_depth_bucket{le="2"} 1
waveserve_queue_depth_bucket{le="4"} 2
waveserve_queue_depth_bucket{le="8"} 2
waveserve_queue_depth_bucket{le="16"} 2
waveserve_queue_depth_bucket{le="32"} 2
waveserve_queue_depth_bucket{le="64"} 2
waveserve_queue_depth_bucket{le="128"} 2
waveserve_queue_depth_bucket{le="256"} 2
waveserve_queue_depth_bucket{le="+Inf"} 2
waveserve_queue_depth_sum 3
waveserve_queue_depth_count 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
