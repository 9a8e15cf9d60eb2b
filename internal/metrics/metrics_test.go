package metrics

import (
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
	s := h.Snapshot()
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
	s := h.Snapshot()
	if s.Count != 4000 || s.Counts[0] != 4000 {
		t.Errorf("Count/Counts[0] = %d/%d, want 4000/4000", s.Count, s.Counts[0])
	}
	if s.Sum != 4000 {
		t.Errorf("Sum = %g, want 4000 (CAS accumulation lost updates)", s.Sum)
	}
}
