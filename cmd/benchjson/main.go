// Command benchjson runs the wavelet fast-path benchmark suite and
// writes a machine-readable BENCH_*.json, giving successive PRs a
// performance trajectory that survives copy-paste-free comparison. The
// same four transforms as the Decompose512* benchmarks in bench_test.go
// are measured: the steady-state Decomposer (reused arena + output
// pyramid), the allocating one-shot dispatch, the pre-kernel reference
// path, and the shared-memory parallel transform; then the inverse, as
// a warm 5-level Reconstruct and a 4-worker ParallelReconstruct of the
// same scene; then the four wire codecs on a 256-square db8 request.
// The derived block
// records the headline ratios the PR gates check (fast-vs-reference
// speedup, steady-state allocations).
//
// Usage:
//
//	benchjson                   # writes BENCH_local.json
//	benchjson -label ci         # writes BENCH_ci.json
//	benchjson -out path.json    # explicit output path
//
// With -serve, benchjson instead runs the load-generator mode against
// an in-process serve.Server: concurrent closed-loop clients hammer
// Server.Do for -serve-duration, and the report records throughput
// (images/sec), latency quantiles from the service histogram, and the
// overload-rejection fraction:
//
//	benchjson -serve -label serve_pr5   # writes BENCH_serve_pr5.json
//
// With -bior, benchjson runs the biorthogonal comparison suite instead:
// bior4.4 (CDF 9/7) against db4 on the same 512-square three-level
// decomposition, through both the steady-state Decomposer and the
// reference path, with per-bank speedup and allocation ratios in the
// derived block:
//
//	benchjson -bior -label bior_pr6     # writes BENCH_bior_pr6.json
//
// With -lifting, benchjson runs the lifting-tier comparison: cdf5/3,
// rbio4.4, and db8 through a steady-state Decomposer at tolerance 0
// (convolution) and at the scheme's Eps (lifting), with per-bank
// speedups and the headline gate ratio in the derived block:
//
//	benchjson -lifting -label lifting_pr9   # writes BENCH_lifting_pr9.json
//
// The JSON format is documented in EXPERIMENTS.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"wavelethpc/internal/cli"
	"wavelethpc/internal/core"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/serve"
	"wavelethpc/internal/wavelet"
)

// result is one benchmark's measurement.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// report is the BENCH_*.json document.
type report struct {
	Schema    string             `json:"schema"`
	Timestamp string             `json:"timestamp"`
	Label     string             `json:"label"`
	GoVersion string             `json:"go_version"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	NumCPU    int                `json:"num_cpu"`
	Results   []result           `json:"results"`
	Derived   map[string]float64 `json:"derived"`
}

func measure(name string, fn func(b *testing.B)) result {
	r := testing.Benchmark(fn)
	return result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		label      = flag.String("label", "local", "label embedded in the report and the default file name")
		out        = flag.String("out", "", "output path (default BENCH_<label>.json)")
		serveMode  = flag.Bool("serve", false, "run the serve-layer load generator instead of the kernel suite")
		clients    = flag.Int("serve-clients", 2*runtime.NumCPU(), "concurrent load-generator clients")
		duration   = flag.Duration("serve-duration", 2*time.Second, "load-generator run length")
		serveSize  = flag.Int("serve-size", 512, "square image size for the load generator")
		serveQueue = flag.Int("serve-queue", 64, "admission queue depth")
		serveBatch = flag.Int("serve-batch", 1, "micro-batch size (>= 2 enables batching)")
		biorMode   = flag.Bool("bior", false, "run the bior4.4-vs-db4 comparison suite instead of the kernel suite")
		liftMode   = flag.Bool("lifting", false, "run the lifting-vs-convolution tier comparison instead of the kernel suite")

		compareMode = flag.Bool("compare", false, "compare two BENCH_*.json reports: benchjson -compare old.json new.json [-tol 10%]")
		tolFlag     = flag.String("tol", "10%", "ns/op regression tolerance for -compare (\"10%\" or \"0.1\")")

		scaleMode     = flag.Bool("scale", false, "run the horizontal scale-out benchmark: HTTP throughput vs backend count, then cache-hit speedup")
		scaleBackends = flag.String("scale-backends", "1,2,3", "comma-separated fleet-size sweep for -scale")
		scaleBin      = flag.String("scale-bin", "", "waveserved binary: spawn real subprocess backends for -scale")
		scalePace     = flag.Duration("scale-pace", 10*time.Millisecond, "per-backend admission pacing of the in-process -scale model (ignored with -scale-bin)")
		scaleClients  = flag.Int("scale-clients", 4, "closed-loop clients per backend for -scale")
		scaleDuration = flag.Duration("scale-duration", 2*time.Second, "per-phase run length for -scale")
		scaleSize     = flag.Int("scale-size", 64, "square image size for -scale")
		scaleCache    = flag.Int64("scale-cache-bytes", 64<<20, "result-cache byte budget of the -scale cache phase")

		gatewayMode = flag.Bool("gateway", false, "run the multi-backend gateway load generator instead of the kernel suite")
		gwBackends  = flag.Int("gateway-backends", 3, "fleet size behind the gateway")
		gwPace      = flag.Duration("gateway-pace", 10*time.Millisecond, "per-backend admission pacing of the in-process scale model (0 = unpaced)")
		gwBin       = flag.String("gateway-bin", "", "waveserved binary: spawn real subprocess backends instead of in-process ones")
		gwKill      = flag.Bool("gateway-kill", false, "kill one backend a third of the way through and report client errors")
		gwClients   = flag.Int("gateway-clients", 0, "closed-loop clients (0 = 8 per backend)")
		gwDuration  = flag.Duration("gateway-duration", 3*time.Second, "gateway load run length")
		gwSize      = flag.Int("gateway-size", 64, "square image size for the gateway load generator")
	)
	flag.Parse()
	if *compareMode {
		os.Exit(runCompare(os.Stdout, flag.Args(), *tolFlag))
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", *label)
	}

	im := image.Landsat(512, 512, 42)
	bank := filter.Daubechies8()
	const levels, reconLevels = 3, 5

	rep := report{
		Schema:    "wavelethpc-bench/v1",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Label:     *label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Derived:   map[string]float64{},
	}

	if *liftMode {
		runLiftingCompare(&rep, im)
		writeReport(&rep, *out)
		for _, r := range rep.Results {
			log.Printf("%-30s %10.0f ns/op %8d B/op %6d allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		log.Printf("lifting gate speedup (best bank vs its convolution path): %.2fx", rep.Derived["lifting_gate_speedup"])
		log.Printf("wrote %s", *out)
		return
	}

	if *biorMode {
		runBiorCompare(&rep, im)
		writeReport(&rep, *out)
		for _, r := range rep.Results {
			log.Printf("%-30s %10.0f ns/op %8d B/op %6d allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		log.Printf("bior4.4/db4 steady-state cost ratio: %.2fx", rep.Derived["bior44_vs_db4_steady_ratio"])
		log.Printf("wrote %s", *out)
		return
	}

	if *scaleMode {
		sizes, err := cli.ParseInts(*scaleBackends)
		if err != nil {
			log.Fatalf("-scale-backends: %v", err)
		}
		runScaleBench(&rep, scaleOpts{
			fleetSizes: sizes,
			bin:        *scaleBin,
			pace:       *scalePace,
			clients:    *scaleClients,
			duration:   *scaleDuration,
			size:       *scaleSize,
			cacheBytes: *scaleCache,
		})
		writeReport(&rep, *out)
		log.Printf("scale sweep: max fleet %.0f backends, %.0f client errors, cache-hit speedup %.2fx",
			rep.Derived["scale_backends_max"], rep.Derived["scale_client_errors"],
			rep.Derived["scale_cache_hit_speedup"])
		log.Printf("wrote %s", *out)
		return
	}

	if *gatewayMode {
		runGatewayLoad(&rep, gatewayOpts{
			backends: *gwBackends,
			pace:     *gwPace,
			bin:      *gwBin,
			kill:     *gwKill,
			clients:  *gwClients,
			duration: *gwDuration,
			size:     *gwSize,
		})
		writeReport(&rep, *out)
		log.Printf("gateway aggregate: %.1f images/sec vs %.1f single (%.2fx), %d client errors, %d retries",
			rep.Derived["gateway_images_per_sec"], rep.Derived["gateway_single_images_per_sec"],
			rep.Derived["gateway_scaling_vs_single"], int(rep.Derived["gateway_client_errors"]),
			int(rep.Derived["gateway_retries"]))
		log.Printf("wrote %s", *out)
		return
	}

	if *serveMode {
		runServeLoad(&rep, *clients, *duration, *serveSize, *serveQueue, *serveBatch)
		writeReport(&rep, *out)
		log.Printf("serve throughput: %.1f images/sec (p50 %.3gs, p99 %.3gs, rejected %.1f%%)",
			rep.Derived["serve_images_per_sec"], rep.Derived["serve_p50_latency_sec"],
			rep.Derived["serve_p99_latency_sec"], 100*rep.Derived["serve_reject_fraction"])
		log.Printf("wrote %s", *out)
		return
	}

	steady := measure("Decompose512", func(b *testing.B) {
		d := wavelet.NewDecomposer(bank, filter.Periodic, levels)
		if _, err := d.Decompose(im); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Decompose(im); err != nil {
				b.Fatal(err)
			}
		}
	})
	oneShot := measure("Decompose512OneShot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wavelet.Decompose(im, bank, filter.Periodic, levels); err != nil {
				b.Fatal(err)
			}
		}
	})
	ref := measure("Decompose512Reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wavelet.DecomposeReference(im, bank, filter.Periodic, levels); err != nil {
				b.Fatal(err)
			}
		}
	})
	par4 := measure("ParallelDecompose512Workers4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ParallelDecomposeTol(im, bank, filter.Periodic, levels, 4, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The inverse pair: a warm 5-level reconstruction (arena and rings
	// pooled) and the worker-pool inverse, both of the same scene.
	pyr, err := wavelet.Decompose(im, bank, filter.Periodic, reconLevels)
	if err != nil {
		log.Fatal(err)
	}
	recon := measure("Reconstruct512", func(b *testing.B) {
		reconSink = wavelet.Reconstruct(pyr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reconSink = wavelet.Reconstruct(pyr)
		}
	})
	parRecon := measure("ParallelReconstruct512Workers4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reconSink = core.ParallelReconstruct(pyr, 4)
		}
	})
	rep.Results = append([]result{steady, oneShot, ref, par4, recon, parRecon}, codecResults()...)

	rep.Derived["speedup_steady_vs_reference"] = ref.NsPerOp / steady.NsPerOp
	rep.Derived["speedup_oneshot_vs_reference"] = ref.NsPerOp / oneShot.NsPerOp
	rep.Derived["speedup_parallel4_vs_reference"] = ref.NsPerOp / par4.NsPerOp
	rep.Derived["steady_allocs_per_op"] = float64(steady.AllocsPerOp)

	writeReport(&rep, *out)
	for _, r := range rep.Results {
		log.Printf("%-30s %10.0f ns/op %8d B/op %6d allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	log.Printf("speedup steady/reference: %.2fx", rep.Derived["speedup_steady_vs_reference"])
	log.Printf("wrote %s", *out)
}

// reconSink keeps the measured reconstructions live.
var reconSink *image.Image

// codecResults measures the wire codecs on the service workload's
// largest request: a 256-square raster and its db8 three-level pyramid,
// encoded into and decoded from memory.
func codecResults() []result {
	im := image.Landsat(256, 256, 42)
	pyr, err := wavelet.Decompose(im, filter.Daubechies8(), filter.Periodic, 3)
	if err != nil {
		log.Fatal(err)
	}
	var raster, pyrBytes bytes.Buffer
	if err := proto.EncodeRaster(&raster, im); err != nil {
		log.Fatal(err)
	}
	if err := proto.EncodePyramid(&pyrBytes, pyr); err != nil {
		log.Fatal(err)
	}
	encode := func(name string, enc func(*bytes.Buffer) error) result {
		return measure(name, func(b *testing.B) {
			buf := bytes.NewBuffer(make([]byte, 0, pyrBytes.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := enc(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	decode := func(name string, data []byte, dec func(*bytes.Reader) error) result {
		return measure(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := dec(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	return []result{
		encode("EncodeRaster256", func(w *bytes.Buffer) error { return proto.EncodeRaster(w, im) }),
		decode("DecodeRaster256", raster.Bytes(), func(r *bytes.Reader) (err error) {
			codecImageSink, err = proto.DecodeRaster(r)
			return err
		}),
		encode("EncodePyramid256", func(w *bytes.Buffer) error { return proto.EncodePyramid(w, pyr) }),
		decode("DecodePyramid256", pyrBytes.Bytes(), func(r *bytes.Reader) (err error) {
			codecPyramidSink, err = proto.DecodePyramid(r)
			return err
		}),
	}
}

// codecImageSink and codecPyramidSink keep the decoded values live.
var (
	codecImageSink   *image.Image
	codecPyramidSink *wavelet.Pyramid
)

func writeReport(rep *report, path string) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

// runBiorCompare measures the biorthogonal fast path against the
// orthonormal baseline: bior4.4 (9/7-tap analysis, mixed channel
// lengths, per-channel kernel passes) versus db4 (4-tap, fused unrolled
// kernel) on the same 512-square three-level transform.
func runBiorCompare(rep *report, im *image.Image) {
	const levels = 3
	banks := []struct {
		key  string
		bank *filter.Bank
	}{
		{"db4", filter.Daubechies4()},
		{"bior44", filter.Bior44()},
	}
	byKey := map[string]result{}
	for _, bc := range banks {
		bank := bc.bank
		steady := measure("Decompose512Steady_"+bank.Name, func(b *testing.B) {
			d := wavelet.NewDecomposer(bank, filter.Periodic, levels)
			if _, err := d.Decompose(im); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Decompose(im); err != nil {
					b.Fatal(err)
				}
			}
		})
		ref := measure("Decompose512Reference_"+bank.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wavelet.DecomposeReference(im, bank, filter.Periodic, levels); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Results = append(rep.Results, steady, ref)
		byKey[bc.key+"_steady"] = steady
		byKey[bc.key+"_ref"] = ref
		rep.Derived["speedup_steady_vs_reference_"+bc.key] =
			ref.NsPerOp / steady.NsPerOp
		rep.Derived["steady_allocs_per_op_"+bc.key] = float64(steady.AllocsPerOp)
	}
	rep.Derived["bior44_vs_db4_steady_ratio"] =
		byKey["bior44_steady"].NsPerOp / byKey["db4_steady"].NsPerOp
	rep.Derived["bior44_vs_db4_reference_ratio"] =
		byKey["bior44_ref"].NsPerOp / byKey["db4_ref"].NsPerOp
}

// runServeLoad drives an in-process serve.Server with closed-loop
// clients for the given duration and folds throughput, latency, and
// overload statistics into the report.
func runServeLoad(rep *report, clients int, duration time.Duration, size, queue, batch int) {
	if clients < 1 {
		clients = 1
	}
	srv, err := serve.New(serve.Config{
		Bank:       filter.Daubechies8(),
		Levels:     3,
		QueueDepth: queue,
		BatchSize:  batch,
	})
	if err != nil {
		log.Fatal(err)
	}
	im := image.Landsat(size, size, 42)
	// Warm the pools so steady-state numbers are not dominated by
	// first-touch allocation.
	if res, err := srv.Do(context.Background(), serve.Request{Image: im}); err != nil {
		log.Fatal(err)
	} else {
		res.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				res, err := srv.Do(ctx, serve.Request{Image: im})
				if err != nil {
					// Overload: yield and retry (closed-loop backoff).
					runtime.Gosched()
					continue
				}
				res.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	snap := srv.Metrics().Snapshot()

	completed := float64(snap.Completed)
	attempts := float64(snap.Accepted + snap.Rejected)
	avgLatency := 0.0
	if snap.Latency.Count > 0 {
		avgLatency = snap.Latency.Sum / float64(snap.Latency.Count)
	}
	rep.Results = append(rep.Results, result{
		Name:       fmt.Sprintf("ServeDo%d", size),
		Iterations: int(snap.Completed),
		NsPerOp:    avgLatency * 1e9,
	})
	rep.Derived["serve_images_per_sec"] = completed / elapsed
	rep.Derived["serve_clients"] = float64(clients)
	rep.Derived["serve_queue_depth"] = float64(queue)
	rep.Derived["serve_batch_size"] = float64(batch)
	rep.Derived["serve_completed"] = completed
	rep.Derived["serve_rejected"] = float64(snap.Rejected)
	rep.Derived["serve_p50_latency_sec"] = snap.Latency.Quantile(0.50)
	rep.Derived["serve_p99_latency_sec"] = snap.Latency.Quantile(0.99)
	if attempts > 0 {
		rep.Derived["serve_reject_fraction"] = float64(snap.Rejected) / attempts
	}
	rep.Derived["serve_batched_images"] = float64(snap.BatchedImages)
}
