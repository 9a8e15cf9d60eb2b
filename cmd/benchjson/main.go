// Command benchjson runs the wavelet fast-path benchmark suite and
// writes a machine-readable BENCH_*.json, giving successive PRs a
// performance trajectory that survives copy-paste-free comparison. The
// same four transforms as the Decompose512* benchmarks in bench_test.go
// are measured: the steady-state Decomposer (reused arena + output
// pyramid), the allocating one-shot dispatch, the pre-kernel reference
// path, and the shared-memory parallel transform; then the inverse, as
// a warm 5-level Reconstruct and a 4-worker ParallelReconstruct of the
// same scene, and a 2-worker ParallelReconstruct of a 2048² scene;
// then each level of the three-level transform as one
// whole-level fused kernel call, forward and inverse; then the lifting
// tier's fused level kernel against the two-pass kernels it replaced;
// then the four wire codecs on a 256-square db8 request. Each entry is
// the fastest of three testing.Benchmark runs. The derived block
// records the headline ratios the PR gates check (fast-vs-reference
// speedup, steady-state allocations).
//
// Usage:
//
//	benchjson                   # writes BENCH_local.json
//	benchjson -label ci         # writes BENCH_ci.json
//	benchjson -out path.json    # explicit output path
//	benchjson -compare old.json new.json [-tol 10%]
//
// The load generators live in the wbench module (wbench/README.md),
// which runs the scene, service and fleet workloads on real compute and
// checks every output.
//
// The JSON format is documented in EXPERIMENTS.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"wavelethpc/internal/core"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/wavelet/kernel"
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

// measure records benchmark fn as the fastest of measureRuns
// testing.Benchmark runs.
func measure(name string, fn func(b *testing.B)) result {
	return fastest(name, func() testing.BenchmarkResult { return testing.Benchmark(fn) })
}

// measureRuns is how many times measure runs each benchmark. One run on
// a loaded machine can read tens of percent slow; the fastest of a few
// is what the code can do.
const measureRuns = 3

// fastest calls run measureRuns times and returns the run with the
// lowest ns/op as name's result.
func fastest(name string, run func() testing.BenchmarkResult) result {
	var best result
	for i := 0; i < measureRuns; i++ {
		r := run()
		res := result{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if i == 0 || res.NsPerOp < best.NsPerOp {
			best = res
		}
	}
	return best
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		label       = flag.String("label", "local", "label embedded in the report and the default file name")
		out         = flag.String("out", "", "output path (default BENCH_<label>.json)")
		compareMode = flag.Bool("compare", false, "compare two BENCH_*.json reports: benchjson -compare old.json new.json [-tol 10%]")
		tolFlag     = flag.String("tol", "10%", "ns/op regression tolerance for -compare (\"10%\" or \"0.1\")")
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
	rep.Results = append([]result{steady, oneShot, ref, par4, recon, parRecon, largeReconResult(bank, reconLevels)}, levelResults(im, bank, levels)...)
	rep.Results = append(rep.Results, liftResults()...)
	rep.Results = append(rep.Results, codecResults()...)

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

// largeReconResult times a 2-worker ParallelReconstruct of a levels-deep
// 2048² pyramid, the scene workload's largest inverse, with its output
// allocation inside the timed call: the shape at which the output's
// zeroing overlaps the coarse levels. The result is first checked
// Float64bits-equal to the sequential Reconstruct.
func largeReconResult(bank *filter.Bank, levels int) result {
	pyr, err := wavelet.Decompose(image.Landsat(2048, 2048, 42), bank, filter.Periodic, levels)
	if err != nil {
		log.Fatal(err)
	}
	if !image.EqualBits(core.ParallelReconstruct(pyr, 2), wavelet.Reconstruct(pyr)) {
		log.Fatal("ParallelReconstruct differs from Reconstruct")
	}
	return measure("ParallelReconstruct2048Workers2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reconSink = core.ParallelReconstruct(pyr, 2)
		}
	})
}

// levelResults times each level of the suite's three-level transform of
// im as one whole-level call of the fused kernels the drivers run:
// kernel.AnalyzeLevelRange forward and kernel.SynthesizeLevelRange
// inverse, each with a reused ring. Level 1 is the finest: its source
// (forward) or output (inverse) is im itself. Before anything is timed,
// the chained levels are checked Float64bits-equal to the pyramid of
// DecomposeReference (which the steady Decomposer matches bit for bit)
// and to ReconstructReference of it, so a wrong kernel is never timed.
func levelResults(im *image.Image, bank *filter.Bank, levels int) []result {
	const ext = filter.Periodic
	pyr, err := wavelet.DecomposeReference(im, bank, ext, levels)
	if err != nil {
		log.Fatal(err)
	}
	// Forward level l reads src[l] and writes ll[l] and det[l]; its
	// details are the pyramid's Levels[levels-1-l].
	src := make([]*image.Image, levels)
	ll := make([]*image.Image, levels)
	det := make([]wavelet.DetailBands, levels)
	var ring kernel.Ring
	for l := range levels {
		src[l] = im
		if l > 0 {
			src[l] = ll[l-1]
		}
		r, c := src[l].Rows/2, src[l].Cols/2
		ll[l] = image.New(r, c)
		det[l] = wavelet.DetailBands{LH: image.New(r, c), HL: image.New(r, c), HH: image.New(r, c)}
		kernel.AnalyzeLevelRange(ll[l], det[l].LH, det[l].HL, det[l].HH, src[l], bank, ext, 0, r, &ring)
		want := pyr.Levels[levels-1-l]
		if !image.EqualBits(det[l].LH, want.LH) || !image.EqualBits(det[l].HL, want.HL) || !image.EqualBits(det[l].HH, want.HH) {
			log.Fatalf("AnalyzeLevelRange level %d differs from DecomposeReference", l+1)
		}
	}
	if !image.EqualBits(ll[levels-1], pyr.Approx) {
		log.Fatal("AnalyzeLevelRange approximation differs from DecomposeReference")
	}
	// Inverse level l rebuilds out[l], src[l]'s shape, from the next
	// coarser approximation and the pyramid's level-l details.
	out := make([]*image.Image, levels)
	approx := make([]*image.Image, levels)
	for l := levels - 1; l >= 0; l-- {
		approx[l] = pyr.Approx
		if l < levels-1 {
			approx[l] = out[l+1]
		}
		out[l] = image.New(src[l].Rows, src[l].Cols)
		d := pyr.Levels[levels-1-l]
		kernel.SynthesizeLevelRange(out[l], approx[l], d.LH, d.HL, d.HH, bank, ext, 0, out[l].Rows, &ring)
	}
	if !image.EqualBits(out[0], wavelet.ReconstructReference(pyr)) {
		log.Fatal("SynthesizeLevelRange levels differ from ReconstructReference")
	}

	var rs []result
	for l := range levels {
		d := det[l]
		rs = append(rs, measure(fmt.Sprintf("AnalyzeLevel512_L%d", l+1), func(b *testing.B) {
			var ring kernel.Ring
			kernel.AnalyzeLevelRange(ll[l], d.LH, d.HL, d.HH, src[l], bank, ext, 0, ll[l].Rows, &ring)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.AnalyzeLevelRange(ll[l], d.LH, d.HL, d.HH, src[l], bank, ext, 0, ll[l].Rows, &ring)
			}
		}))
	}
	for l := range levels {
		d := pyr.Levels[levels-1-l]
		rs = append(rs, measure(fmt.Sprintf("SynthesizeLevel512_L%d", l+1), func(b *testing.B) {
			var ring kernel.Ring
			kernel.SynthesizeLevelRange(out[l], approx[l], d.LH, d.HL, d.HH, bank, ext, 0, out[l].Rows, &ring)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.SynthesizeLevelRange(out[l], approx[l], d.LH, d.HL, d.HH, bank, ext, 0, out[l].Rows, &ring)
			}
		}))
	}
	return rs
}

// liftResults times the lifting tier's level kernels on rbio4.4 at its
// Eps, the scheme scene runs: the fused kernel.LiftLevelRange and the
// two-pass LiftRowsRange + LiftColsRange it replaced, on the first
// level of a 2048² scene, and the fused kernel on each level of the
// suite's 512² transform. Before anything is timed, every fused level
// is checked Float64bits-equal to the two-pass output and allocation
// free on a warm ring.
func liftResults() []result {
	bank, err := filter.ByName("rbio4.4")
	if err != nil {
		log.Fatal(err)
	}
	sch := wavelet.LiftingFor(bank, filter.Periodic, 1)
	if sch == nil {
		log.Fatal("rbio4.4 has no lifting scheme")
	}
	type level struct {
		name string
		src  *image.Image
		b    [4]*image.Image // ll, lh, hl, hh
	}
	newLevel := func(name string, src *image.Image) level {
		lv := level{name: name, src: src}
		for k := range lv.b {
			lv.b[k] = image.New(src.Rows/2, src.Cols/2)
		}
		return lv
	}
	twoPass := func(lv level) {
		b, c := lv.b, lv.src.Cols/2
		kernel.LiftRowsRange(b[0], b[1], b[2], b[3], lv.src, sch, 0, lv.src.Rows)
		kernel.LiftColsRange(b[0], b[1], sch, 0, c)
		kernel.LiftColsRange(b[2], b[3], sch, 0, c)
	}
	var ring kernel.Ring
	fused := func(lv level) {
		b := lv.b
		kernel.LiftLevelRange(b[0], b[1], b[2], b[3], lv.src, sch, 0, lv.src.Rows/2, &ring)
	}
	levels := []level{newLevel("LiftLevel2048_L1", image.Landsat(2048, 2048, 42))}
	src := image.Landsat(512, 512, 42)
	for l := range 3 {
		levels = append(levels, newLevel(fmt.Sprintf("LiftLevel512_L%d", l+1), src))
		src = levels[len(levels)-1].b[0]
	}
	for _, lv := range levels {
		want := newLevel("", lv.src)
		twoPass(want)
		fused(lv)
		for k := range lv.b {
			if !image.EqualBits(lv.b[k], want.b[k]) {
				log.Fatalf("%s: LiftLevelRange differs from the two-pass lifting kernels", lv.name)
			}
		}
		if n := testing.AllocsPerRun(3, func() { fused(lv) }); n != 0 {
			log.Fatalf("%s: LiftLevelRange allocates %.0f times per call", lv.name, n)
		}
	}
	bench := func(name string, fn func()) result {
		return measure(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	rs := []result{
		bench(levels[0].name, func() { fused(levels[0]) }),
		bench("LiftTwoPass2048_L1", func() { twoPass(levels[0]) }),
	}
	for _, lv := range levels[1:] {
		rs = append(rs, bench(lv.name, func() { fused(lv) }))
	}
	return rs
}

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
