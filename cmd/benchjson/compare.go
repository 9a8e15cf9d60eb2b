package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// parseTolerance accepts "10%" or a bare fraction like "0.1" and
// returns the allowed relative ns/op increase. NaN and ±Inf are
// rejected: no delta exceeds either, so they would turn the gate off.
func parseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad tolerance %q: want \"10%%\" or \"0.1\"", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports matches benchmark results by name between a baseline
// and a candidate report and flags regressions: a ns/op increase beyond
// tol, or any allocs/op increase at all (the zero-allocation gates are
// exact, not statistical). Speedups and new benchmarks are reported as
// information. Returns 1 when a regression is found, 0 otherwise.
func compareReports(w io.Writer, oldRep, newRep *report, tol float64) int {
	baseline := map[string]result{}
	for _, r := range oldRep.Results {
		baseline[r.Name] = r
	}
	fmt.Fprintf(w, "comparing %s (baseline) -> %s, tolerance %.1f%%\n",
		oldRep.Label, newRep.Label, 100*tol)
	regressions := 0
	seen := map[string]bool{}
	for _, r := range newRep.Results {
		seen[r.Name] = true
		base, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s new benchmark (%.0f ns/op), no baseline\n", r.Name, r.NsPerOp)
			continue
		}
		delta := 0.0
		if base.NsPerOp > 0 {
			delta = (r.NsPerOp - base.NsPerOp) / base.NsPerOp
		}
		status := "ok"
		switch {
		case r.AllocsPerOp > base.AllocsPerOp:
			status = fmt.Sprintf("REGRESSION: allocs/op %d -> %d", base.AllocsPerOp, r.AllocsPerOp)
			regressions++
		case delta > tol:
			status = fmt.Sprintf("REGRESSION: beyond %.1f%% tolerance", 100*tol)
			regressions++
		}
		fmt.Fprintf(w, "  %-34s %12.0f -> %12.0f ns/op (%+.1f%%)  %s\n",
			r.Name, base.NsPerOp, r.NsPerOp, 100*delta, status)
	}
	for _, r := range oldRep.Results {
		if !seen[r.Name] {
			fmt.Fprintf(w, "  %-34s missing from candidate report\n", r.Name)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "no regressions")
	return 0
}

// runCompare is the -compare entry point. The remaining command line is
// the two report paths, optionally interleaved with "-tol <value>" (the
// documented call shape puts -tol after the files, where the flag
// package no longer parses it).
func runCompare(w io.Writer, args []string, tolDefault string) int {
	tolStr := tolDefault
	var files []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-tol" || args[i] == "--tol") && i+1 < len(args) {
			tolStr = args[i+1]
			i++
			continue
		}
		files = append(files, args[i])
	}
	if len(files) != 2 {
		fmt.Fprintln(w, "usage: benchjson -compare old.json new.json [-tol 10%]")
		return 2
	}
	tol, err := parseTolerance(tolStr)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	oldRep, err := loadReport(files[0])
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	newRep, err := loadReport(files[1])
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	return compareReports(w, oldRep, newRep, tol)
}
