package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestReport(t *testing.T, dir, label string, results []result) string {
	t.Helper()
	rep := report{Schema: "wavelethpc-bench/v1", Label: label, Results: results}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+label+".json")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseTolerance(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		err  bool
	}{
		{"10%", 0.10, false},
		{"25%", 0.25, false},
		{"0.1", 0.1, false},
		{"", 0, true},
		{"-5%", 0, true},
		{"abc", 0, true},
		{"NaN", 0, true},
		{"nan%", 0, true},
		{"Inf", 0, true},
		{"+Inf%", 0, true},
	}
	for _, c := range cases {
		got, err := parseTolerance(c.in)
		if (err != nil) != c.err {
			t.Errorf("parseTolerance(%q) error = %v, want error %v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("parseTolerance(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompareDetectsRegressions(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeTestReport(t, dir, "base", []result{
		{Name: "Decompose512", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "Reference512", NsPerOp: 5000, AllocsPerOp: 100},
		{Name: "Gone", NsPerOp: 10, AllocsPerOp: 0},
	})

	// Within tolerance, allocs flat: clean.
	okPath := writeTestReport(t, dir, "ok", []result{
		{Name: "Decompose512", NsPerOp: 1050, AllocsPerOp: 0},
		{Name: "Reference512", NsPerOp: 4500, AllocsPerOp: 100},
		{Name: "Fresh", NsPerOp: 7, AllocsPerOp: 0},
	})
	var out strings.Builder
	if code := runCompare(&out, []string{oldPath, okPath, "-tol", "10%"}, "10%"); code != 0 {
		t.Fatalf("clean comparison exited %d:\n%s", code, out.String())
	}
	for _, want := range []string{"no regressions", "new benchmark", "missing from candidate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	// ns/op beyond tolerance.
	slowPath := writeTestReport(t, dir, "slow", []result{
		{Name: "Decompose512", NsPerOp: 1200, AllocsPerOp: 0},
		{Name: "Reference512", NsPerOp: 5000, AllocsPerOp: 100},
	})
	out.Reset()
	if code := runCompare(&out, []string{oldPath, slowPath, "-tol", "10%"}, "10%"); code != 1 {
		t.Fatalf("20%% slowdown not flagged (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION: beyond 10.0% tolerance") {
		t.Errorf("output missing tolerance regression:\n%s", out.String())
	}

	// Any allocs/op increase fails regardless of tolerance.
	allocPath := writeTestReport(t, dir, "alloc", []result{
		{Name: "Decompose512", NsPerOp: 900, AllocsPerOp: 2},
		{Name: "Reference512", NsPerOp: 5000, AllocsPerOp: 100},
	})
	out.Reset()
	if code := runCompare(&out, []string{oldPath, allocPath, "-tol", "50%"}, "10%"); code != 1 {
		t.Fatalf("alloc increase not flagged (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION: allocs/op 0 -> 2") {
		t.Errorf("output missing alloc regression:\n%s", out.String())
	}
}

func TestCompareUsageErrors(t *testing.T) {
	var out strings.Builder
	if code := runCompare(&out, []string{"only-one.json"}, "10%"); code != 2 {
		t.Fatalf("missing file operand exited %d, want 2", code)
	}
	out.Reset()
	if code := runCompare(&out, []string{"a.json", "b.json", "-tol", "nope"}, "10%"); code != 2 {
		t.Fatalf("bad tolerance exited %d, want 2", code)
	}
}
