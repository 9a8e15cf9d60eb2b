package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSweepPreservesOrder(t *testing.T) {
	items := []int{5, 1, 4, 2, 8}
	out, err := Sweep(context.Background(), items, 4, func(ctx context.Context, v int) (int, error) {
		// Reverse the natural completion order to prove ordering comes
		// from item index, not completion time.
		time.Sleep(time.Duration(10-v) * time.Millisecond)
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{25, 1, 16, 4, 64}
	for i, v := range out {
		if v != want[i] {
			t.Fatalf("out[%d] = %d, want %d (full: %v)", i, v, want[i], out)
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	out, err := Sweep(context.Background(), nil, 4, func(ctx context.Context, v int) (int, error) {
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("len(out) = %d, want 0", len(out))
	}
}

func TestSweepReportsFirstErrorByIndex(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := Sweep(context.Background(), items, 4, func(ctx context.Context, v int) (int, error) {
		if v >= 3 {
			return 0, fmt.Errorf("point %d failed", v)
		}
		return v, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "point 3 failed") {
		t.Fatalf("err = %v, want the smallest-index failure (point 3)", err)
	}
}

func TestSweepCancelsRemainingWork(t *testing.T) {
	var started atomic.Int64
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	_, err := Sweep(context.Background(), items, 1, func(ctx context.Context, v int) (int, error) {
		started.Add(1)
		if v == 0 {
			return 0, errors.New("boom")
		}
		return v, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// With one worker the first item fails and cancellation must stop the
	// feed well before all 64 items run.
	if n := started.Load(); n >= int64(len(items)) {
		t.Fatalf("started %d items despite early failure", n)
	}
}

func TestSweepHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, []int{1, 2, 3}, 2, func(ctx context.Context, v int) (int, error) {
		return v, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	items := make([]int, 16)
	_, err := Sweep(context.Background(), items, 2, func(ctx context.Context, v int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d, want <= 2", p)
	}
}

// registerTestExperiments guards TestRegistry's registrations.
var registerTestExperiments sync.Once

func TestRegistry(t *testing.T) {
	reg := func(name string) Experiment {
		return &Func{ExpName: name, Desc: name + " test experiment",
			RunFunc: func(ctx context.Context, opt Options) (*Report, error) {
				return &Report{Experiment: name}, nil
			}}
	}
	// The registry is global and rejects duplicates; use unique names to
	// stay independent of other tests, and register them once per
	// process so repeated runs (-count=N) do not collide.
	registerTestExperiments.Do(func() {
		Register(reg("zz-test-b"))
		Register(reg("zz-test-a"))
	})

	exp, err := Lookup("zz-test-a")
	if err != nil {
		t.Fatal(err)
	}
	if exp.Name() != "zz-test-a" {
		t.Fatalf("Lookup returned %q", exp.Name())
	}
	_, err = Lookup("zz-missing")
	if err == nil || !strings.Contains(err.Error(), "zz-test-a") {
		t.Fatalf("Lookup error should list known experiments, got: %v", err)
	}
	names := Names()
	ia, ib := -1, -1
	for i, n := range names {
		if n == "zz-test-a" {
			ia = i
		}
		if n == "zz-test-b" {
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("Names() not sorted or missing entries: %v", names)
	}
	rep, err := RunByName(context.Background(), "zz-test-b", Options{})
	if err != nil || rep.Experiment != "zz-test-b" {
		t.Fatalf("RunByName = %v, %v", rep, err)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	e := &Func{ExpName: "zz-dup", Desc: "d", RunFunc: nil}
	Register(e)
	Register(e)
}

func sampleCurve() *Curve {
	return &Curve{
		Name:   "sample",
		Title:  "sample curve",
		Labels: []Label{{Key: "config", Value: "F8/L1"}},
		Columns: []Column{
			{Name: "P", CSV: "procs", Width: 6, Kind: Int},
			{Name: "elapsed(s)", CSV: "elapsed_s", Unit: "s", Width: 12, Prec: 4, Verb: 'g'},
			{Name: "speedup", CSV: "speedup", Width: 9, Prec: 2, Verb: 'f'},
		},
		Points: []Point{
			{Values: []float64{4, 0.012345678, 3.9}},
			{Values: []float64{16, 0.0034, 14.52}},
		},
	}
}

func TestCurveWriteText(t *testing.T) {
	var b strings.Builder
	if err := sampleCurve().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "sample curve\n" +
		"     P   elapsed(s)   speedup\n" +
		"     4      0.01235      3.90\n" +
		"    16       0.0034     14.52\n"
	if b.String() != want {
		t.Fatalf("WriteText:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestCurveWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := sampleCurve().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "config,procs,elapsed_s,speedup" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "F8/L1,4,0.012345678,3.9" {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestCurveWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := sampleCurve().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	for _, want := range []string{`"name": "sample"`, `"config": "F8/L1"`, `"unit": "s"`, `"values"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %s:\n%s", want, s)
		}
	}
}

func TestTableEmitters(t *testing.T) {
	tab := &Table{
		Name:     "t",
		RowHead:  "",
		RowCSV:   "machine",
		RowWidth: 8,
		Columns:  []Column{{Name: "F8/L1", CSV: "f8l1_s", Width: 10, Prec: 4, Verb: 'g'}},
		Rows:     []Row{{Label: "paragon", Values: []float64{0.123456}}},
	}
	var txt, csvb strings.Builder
	if err := tab.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	want := "              F8/L1\nparagon      0.1235\n"
	if txt.String() != want {
		t.Fatalf("WriteText:\n%q\nwant:\n%q", txt.String(), want)
	}
	if err := tab.WriteCSV(&csvb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvb.String(), "machine,f8l1_s\n") {
		t.Fatalf("CSV header: %q", csvb.String())
	}
}

func TestSeriesName(t *testing.T) {
	for _, tc := range []struct {
		parts []string
		want  string
	}{
		{[]string{"paragon", "F8/L1", "snake"}, "paragon_f8l1_snake"},
		{[]string{"", "F8/L1", "snake"}, "f8l1_snake"},
		{[]string{"a b", "C"}, "a_b_c"},
	} {
		if got := SeriesName(tc.parts...); got != tc.want {
			t.Errorf("SeriesName(%v) = %q, want %q", tc.parts, got, tc.want)
		}
	}
}

func TestSweepRace(t *testing.T) {
	// Exercised under -race in CI: concurrent workers writing disjoint
	// result slots must not race.
	var mu sync.Mutex
	seen := map[int]bool{}
	items := make([]int, 32)
	for i := range items {
		items[i] = i
	}
	out, err := Sweep(context.Background(), items, 8, func(ctx context.Context, v int) (int, error) {
		mu.Lock()
		seen[v] = true
		mu.Unlock()
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(items) || len(out) != len(items) {
		t.Fatalf("ran %d items, got %d results", len(seen), len(out))
	}
}
