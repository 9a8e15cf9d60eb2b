package main

import (
	"testing"
	"time"
)

// TestFastestKeepsTheFastestRun: a slow run before or after the fastest
// one does not set the recorded number, and every run is made.
func TestFastestKeepsTheFastestRun(t *testing.T) {
	runs := []testing.BenchmarkResult{
		{N: 100, T: 300 * time.Microsecond, MemAllocs: 200, MemBytes: 6400},
		{N: 200, T: 200 * time.Microsecond, MemAllocs: 400, MemBytes: 12800},
		{N: 100, T: 250 * time.Microsecond, MemAllocs: 200, MemBytes: 6400},
	}
	calls := 0
	got := fastest("X", func() testing.BenchmarkResult {
		r := runs[calls]
		calls++
		return r
	})
	if calls != measureRuns {
		t.Fatalf("fastest made %d runs, want %d", calls, measureRuns)
	}
	want := result{Name: "X", Iterations: 200, NsPerOp: 1000, AllocsPerOp: 2, BytesPerOp: 64}
	if got != want {
		t.Fatalf("fastest = %+v, want %+v", got, want)
	}
}
