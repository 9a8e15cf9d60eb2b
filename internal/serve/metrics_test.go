package serve

import (
	"strings"
	"testing"
)

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
