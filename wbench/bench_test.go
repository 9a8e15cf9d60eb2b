package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkFile is the repository's BENCHMARK.json, as far as the
// metric lists go.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 0.5, trace: trace, tiny: true,
		workers: 2, setups: 1, traceOut: t.TempDir() + "/trace.json"}
}

// TestWorkloadsPrintEveryMetric runs each workload at a tiny size, end to
// end and traced, and checks that every metric BENCHMARK.json names comes
// out with its unit and that the trace loads as trace_event JSON.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range []string{"scene", "service", "fleet"} {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, w, trace)
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				data, err := os.ReadFile(o.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: trace does not load as trace_event JSON (%d events): %v", w, len(doc.TraceEvents), err)
				}
			}
		}
	}
}

// TestSameSeedSameOperations: two set-ups with one seed issue the same
// operation sequence per caller; another seed issues another.
func TestSameSeedSameOperations(t *testing.T) {
	for _, w := range []string{"scene", "service", "fleet"} {
		issued := func(seed uint64) [][]int {
			o := tinyOptions(t, w, false)
			o.seed = seed
			env, err := setups[w](o, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer env.close()
			return env.run(200*time.Millisecond, nil).issued
		}
		a, b, c := issued(1), issued(1), issued(2)
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("%s: %d vs %d callers", w, len(a), len(b))
		}
		for i := range a {
			n := min(len(a[i]), len(b[i]), len(c[i]))
			if n == 0 {
				t.Fatalf("%s caller %d issued nothing", w, i)
			}
			if !reflect.DeepEqual(a[i][:n], b[i][:n]) {
				t.Errorf("%s caller %d: same seed, different operation sequence", w, i)
			}
			if reflect.DeepEqual(a[i][:n], c[i][:n]) {
				t.Errorf("%s caller %d: seeds 1 and 2 issued the same sequence", w, i)
			}
		}
	}
}

// TestUsageErrors: a bad workload or flag value is a usage error.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "scene", "--trace", "2"},
		{"--workload", "scene", "--seconds", "0"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
