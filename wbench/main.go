// Command wbench is the repository's benchmark: three seeded closed-loop
// workloads (scene, service, fleet) that check every output against the
// in-process transform and report end-to-end metrics, plus a traced run
// that reports per-layer metrics. See README.md in this directory.
//
//	go run . --workload scene --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A wrong output prints correct=false and exits 1; a usage or set-up
// error prints no result and exits 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	workers  int
	// tiny shrinks every input, for the benchmark's own tests.
	tiny bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// wrapBackend, when set, wraps each serve backend's handler (the
	// tests use it to corrupt a response).
	wrapBackend func(http.Handler) http.Handler
}

// subRuns is how many equal parts an end-to-end run is measured in.
const subRuns = 5

type setupFunc func(o options, tr *tracer) (workloadEnv, error)

// setupRepeats is how many times each workload is set up in an
// end-to-end run; setup_s is the median. The cheap set-ups repeat more
// often, so that their median is as steady as the scene's.
var setupRepeats = map[string]int{"scene": 3, "service": 5, "fleet": 5}

var setups = map[string]setupFunc{
	"scene":   setupScene,
	"service": setupService,
	"fleet":   setupFleet,
}

// endToEnd lists the end-to-end metrics, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decompose_mpix_per_s", "Mpix/s"},
	{"reconstruct_mpix_per_s", "Mpix/s"},
	{"requests_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the per-layer metrics of the traced run.
var perLayer = func() []metricDef {
	var d []metricDef
	for _, sweep := range []string{"conv_rows", "conv_cols", "lift_rows", "lift_cols"} {
		for l := 1; l <= probeLevels; l++ {
			d = append(d, metricDef{"kernel." + sweep + "_ms.l" + strconv.Itoa(l), "ms"})
		}
	}
	d = append(d,
		metricDef{"kernel.macs", "count"},
		metricDef{"kernel.bytes_moved", "bytes"},
		metricDef{"kernel.ops_per_byte", "flop/byte"},
		metricDef{"kernel.gbps", "GB/s"},
		metricDef{"kernel.copy_gbps", "GB/s"},
		metricDef{"kernel.llc_mib", "MiB"},
		metricDef{"wavelet.decompose_ms.conv", "ms"},
		metricDef{"wavelet.decompose_ms.lift", "ms"},
		metricDef{"wavelet.decompose_allocs", "count"},
		metricDef{"wavelet.reconstruct_ms", "ms"},
		metricDef{"wavelet.reconstruct_alloc_bytes", "bytes"},
		metricDef{"core.decompose_ms.w1", "ms"},
		metricDef{"core.decompose_ms.w2", "ms"},
		metricDef{"core.decompose_speedup", "ratio"},
		metricDef{"core.reconstruct_ms.w1", "ms"},
		metricDef{"core.reconstruct_ms.w2", "ms"},
		metricDef{"core.reconstruct_speedup", "ratio"},
		metricDef{"core.reconstruct_alloc_bytes", "bytes"},
		metricDef{"core.pool_overhead_ms", "ms"},
	)
	for _, c := range []string{"encode_raster", "decode_raster", "encode_pyramid", "decode_pyramid", "read_pgm", "write_pgm", "route_info"} {
		d = append(d, metricDef{"proto." + c + "_us", "us"})
	}
	d = append(d,
		metricDef{"proto.wire_bytes_per_request", "bytes"},
		metricDef{"serve.do_us", "us"},
		metricDef{"serve.handler_us", "us"},
		metricDef{"serve.pool_reuse_ratio", "ratio"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.queue_depth_mean", "count"},
		metricDef{"client.transport_us", "us"},
		metricDef{"gateway.handler_self_us", "us"},
		metricDef{"gateway.cache_hit_ratio", "ratio"},
		metricDef{"gateway.cache_evictions", "count"},
		metricDef{"gateway.cache_hit_us", "us"},
		metricDef{"gateway.cache_miss_us", "us"},
		metricDef{"gateway.tiled_ms", "ms"},
		metricDef{"gateway.tile_subrequests", "count"},
		metricDef{"gateway.tile_self_ms", "ms"},
		metricDef{"gateway.attempts_per_request", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.unaccounted_share", "ratio"},
	)
	return d
}()

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	os.Exit(exitStatus(res))
}

// exitStatus is 1 when any output was wrong, else 0.
func exitStatus(r *result) int {
	if !r.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("wbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: scene, service or fleet")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs and operation order")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	traceOut := fs.String("trace-out", "", "Chrome trace_event file of the traced run (default <build dir>/trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := setups[*workload]; !ok {
		return options{}, fmt.Errorf("unknown --workload %q (scene, service or fleet)", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return options{}, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceOut: *traceOut, workers: runtime.GOMAXPROCS(0), setups: setupRepeats[*workload]}
	if o.traceOut == "" {
		dir := os.Getenv("WBENCH_OUT")
		if dir == "" {
			dir = ".bench_build"
		}
		o.traceOut = filepath.Join(dir, "trace-"+o.workload+".json")
	}
	return o, nil
}

func run(o options, log io.Writer) (*result, error) {
	if o.trace {
		return runTraced(o, log)
	}
	return runEndToEnd(o, log)
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// runEndToEnd sets the workload up o.setups times (reporting the median
// as setup_s), then measures it with tracing off.
func runEndToEnd(o options, log io.Writer) (*result, error) {
	var env workloadEnv
	var setupTimes []float64
	for k := 0; k < max(o.setups, 1); k++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if env, err = setups[o.workload](o, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}
	defer env.close()
	metricsOf := httpMetrics
	if o.workload == "scene" {
		metricsOf = sceneMetrics
	}
	// The run is measured as subRuns equal parts; each metric is the
	// median over the parts, so a burst of interference from outside the
	// process moves at most one of them.
	st := &loopStats{}
	parts := map[string][]float64{}
	for k := 0; k < subRuns; k++ {
		resetPeakRSS()
		part := env.run(o.duration()/subRuns, nil)
		for name, v := range metricsOf(part) {
			parts[name] = append(parts[name], v)
		}
		parts["peak_rss_mb"] = append(parts["peak_rss_mb"], peakRSSMiB())
		st.merge(part)
	}
	m := map[string]float64{"setup_s": median(setupTimes)}
	for name, vs := range parts {
		m[name] = median(vs)
	}
	fmt.Fprintf(log, "%s seed %d: %d operations in %d parts (%d latency samples, about %d per part), %d failed, %d wrong outputs, error_rate %.4g\n",
		o.workload, o.seed, st.attempted, subRuns, len(st.lat), len(st.lat)/subRuns, st.failed, st.wrong, errorRate(st))
	if st.firstErr != nil {
		fmt.Fprintln(log, "first failure:", st.firstErr)
	}
	return newResult(st, m, endToEnd, log), nil
}

func errorRate(st *loopStats) float64 {
	return float64(st.failed) / float64(max(st.attempted, 1))
}

// runTraced is the per-layer run. The workload runs for half the time
// untraced and half traced (their throughput ratio is the tracing
// overhead); layers the workload does not exercise are sampled by a
// short traced pass of the workload that does; then every layer is
// probed directly on the workload's largest input and its payloads.
func runTraced(o options, log io.Writer) (*result, error) {
	tr := newTracer()
	env, err := setups[o.workload](o, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	half := o.duration() / 2
	plain := env.run(half, tr)
	ev0 := evictions(env)
	tr.on.Store(true)
	traced := env.run(half, tr)
	tr.on.Store(false)
	own := newSpanTree(tr.take())

	m := map[string]float64{}
	m["trace.overhead_ratio"] = throughput(plain) / throughput(traced)
	shares := own.selfShares()
	m["trace.unaccounted_share"] = shares[layerBench]
	passes := []tracePass{{name: o.workload, spans: own.spans, shares: shares}}
	total := &loopStats{}
	total.merge(plain)
	total.merge(traced)

	// pass runs a short traced pass of another HTTP workload; the caller
	// reads its counters, then closes it.
	pass := func(name string, setup setupFunc) (*httpEnv, *spanTree, int64, error) {
		penv, err := setup(o, tr)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s pass: %w", name, err)
		}
		ev0 := evictions(penv)
		tr.on.Store(true)
		st := penv.run(min(o.duration(), 2*time.Second), tr)
		tr.on.Store(false)
		tree := newSpanTree(tr.take())
		total.merge(st)
		passes = append(passes, tracePass{name: name + " pass", spans: tree.spans, shares: tree.selfShares()})
		return penv.(*httpEnv), tree, evictions(penv) - ev0, nil
	}
	switch o.workload {
	case "scene":
		svc, tree, _, err := pass("service", setupService)
		if err != nil {
			return nil, err
		}
		httpLayerMetrics(tree, svc, m)
		svc.close()
	default:
		httpLayerMetrics(own, env.(*httpEnv), m)
	}
	if o.workload == "fleet" {
		gatewayLayerMetrics(own, evictions(env)-ev0, m)
	} else {
		fl, tree, ev, err := pass("fleet", setupFleet)
		if err != nil {
			return nil, err
		}
		gatewayLayerMetrics(tree, ev, m)
		fl.close()
	}

	// Stop the servers before probing, so that no background work
	// (health probes, idle connections) lands in the probes' timings or
	// allocation counts.
	images := env.payloadImages()
	env.close()
	largest := images[0]
	for _, im := range images {
		if im.Rows*im.Cols > largest.Rows*largest.Cols {
			largest = im
		}
	}
	probes := []func() error{
		func() error { return probeKernel(largest, m) },
		func() error { return probeTransforms(largest, m) },
		func() error { return probeProto(images, m) },
		func() error { return probeServeDo(o, m) },
	}
	for _, p := range probes {
		if err := p(); err != nil {
			// A probe whose output is wrong fails the run like a wrong
			// workload output.
			total.attempted++
			total.failed++
			total.wrong++
			fmt.Fprintln(log, "layer probe:", err)
		}
	}

	if err := writeTraceFile(o.traceOut, passes); err != nil {
		return nil, err
	}
	for _, p := range passes {
		fmt.Fprintf(log, "%s: self-time share by layer %s\n", p.name, formatShares(p.shares))
	}
	fmt.Fprintf(log, "trace written to %s\n", o.traceOut)
	fmt.Fprintf(log, "%s seed %d traced: %d operations, %d failed, %d wrong outputs, error_rate %.4g (largest input %dx%d)\n",
		o.workload, o.seed, total.attempted, total.failed, total.wrong, errorRate(total), largest.Rows, largest.Cols)
	return newResult(total, m, perLayer, log), nil
}

// throughput is completed operations per second of transform time
// (scene) or wall time.
func throughput(st *loopStats) float64 {
	busy := st.fwdWall + st.invWall
	if busy == 0 {
		busy = st.wall
	}
	return float64(st.completed()) / busy.Seconds()
}

func writeTraceFile(path string, passes []tracePass) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, passes); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

func formatShares(shares map[string]float64) string {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf(" %s=%.3f", n, shares[n])
	}
	return s
}

// newResult keeps exactly the defined metrics, in definition order, and
// prints each with its unit on log.
func newResult(st *loopStats, m map[string]float64, defs []metricDef, log io.Writer) *result {
	r := &result{Correct: st.wrong == 0, Attempted: st.attempted, Failed: st.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(log, "metric %s not measured; reported as 0\n", d.name)
			v = 0
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	return r
}
