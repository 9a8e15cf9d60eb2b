package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"wavelethpc"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// The scene workload: one caller decomposes a seeded sequence of Landsat
// scenes 5 levels deep on all cores through the public facade, then
// inverts each pyramid, over three banks that cover the convolution tier
// (db8), the lifting tier (rbio4.4 at its Eps) and the shortest filter
// (haar). No wire layer runs.

const sceneLevels = 5

// sceneShapes are the scene sizes: 2048² (32 MiB, far beyond the L2),
// 2048×1024, and the paper's 512² (fits in the L2).
func sceneShapes(tiny bool) [][2]int {
	if tiny {
		return [][2]int{{128, 128}, {128, 64}, {64, 64}}
	}
	return [][2]int{{2048, 2048}, {2048, 1024}, {512, 512}}
}

func sceneBanks() []bankSpec {
	return []bankSpec{convBank("db8"), liftedBank("rbio4.4"), convBank("haar")}
}

// sceneCase is one (scene, bank) pair and its expected outputs.
type sceneCase struct {
	img  int
	bank bankSpec
	fwd  pyramidWant
	// inv is the reference reconstruction's hash for tol-0 banks; lifted
	// reconstructions are compared with the input instead.
	inv uint64
}

// liftedReconTol bounds a lifted pyramid's reconstruction error: far
// below the half-level that would change the quantised input.
const liftedReconTol = 1e-6

type sceneEnv struct {
	seed    uint64
	workers int
	images  []*image.Image
	cases   []sceneCase
	cycle   int
}

func setupScene(o options, _ *tracer) (workloadEnv, error) {
	e := &sceneEnv{seed: o.seed, workers: o.workers}
	for i, sh := range sceneShapes(o.tiny) {
		e.images = append(e.images, landsat(sh[0], sh[1], derive(o.seed, 1, uint64(i))))
	}
	for i, im := range e.images {
		for _, b := range sceneBanks() {
			c := sceneCase{img: i, bank: b}
			ref, err := wavelet.Decompose(im, b.bank, filter.Periodic, sceneLevels)
			if err != nil {
				return nil, err
			}
			if b.lifted() {
				c.fwd = pyramidWant{ref: ref, eps: b.tol}
			} else {
				c.fwd = pyramidWant{hash: pyramidHash(ref)}
				c.inv = imageHash(wavelet.Reconstruct(ref))
			}
			e.cases = append(e.cases, c)
		}
	}
	return e, nil
}

func (e *sceneEnv) payloadImages() []*image.Image { return e.images }

func (e *sceneEnv) close() {}

// run decomposes and reconstructs whole deck cycles (every case once per
// cycle, in a seeded order) until d has passed, so every run measures
// the same composition.
func (e *sceneEnv) run(d time.Duration, tr *tracer) *loopStats {
	st := newLoopStats(1)
	deck := make([]int, len(e.cases))
	for i := range deck {
		deck[i] = i
	}
	start := time.Now()
	deadline := start.Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		order := shuffled(deck, derive(e.seed, 2, uint64(e.cycle)))
		e.cycle++
		for _, ci := range order {
			st.issued[0] = append(st.issued[0], ci)
			// Collect the previous call's garbage (tens of MiB per
			// scene) outside the timed calls, so that neither the timings
			// nor the peak resident set depend on when the collector
			// happens to run.
			runtime.GC()
			e.runCase(ci, st, tr)
		}
	}
	st.wall = time.Since(start)
	return st
}

func (e *sceneEnv) runCase(ci int, st *loopStats, tr *tracer) {
	c := &e.cases[ci]
	im := e.images[c.img]
	mpix := float64(im.Rows*im.Cols) / 1e6

	ctx, root := tr.start(context.Background(), layerBench, "decompose "+c.bank.String())
	_, cs := tr.start(ctx, layerCore, "DecomposeWith")
	t := time.Now()
	p, err := wavelethpc.DecomposeWith(im, c.bank.bank, wavelethpc.WithLevels(sceneLevels),
		wavelethpc.WithWorkers(e.workers), wavelethpc.WithTolerance(c.bank.tol))
	dt := time.Since(t)
	tr.finish(cs)
	tr.finish(root)
	st.fwdWall += dt
	if !st.record(dt, err, func() error { return c.fwd.check(p) }) {
		return
	}
	st.calls = append(st.calls, call{key: 2 * ci, mpix: mpix, ms: ms(dt)})

	ctx, root = tr.start(context.Background(), layerBench, "reconstruct "+c.bank.String())
	_, cs = tr.start(ctx, layerCore, "ParallelReconstruct")
	t = time.Now()
	r := wavelethpc.ParallelReconstruct(p, e.workers)
	dt = time.Since(t)
	tr.finish(cs)
	tr.finish(root)
	st.invWall += dt
	ok := st.record(dt, nil, func() error {
		if c.bank.lifted() {
			if !image.Equal(im, r, liftedReconTol) {
				return fmt.Errorf("lifted reconstruction drifts more than %g from the input", liftedReconTol)
			}
			return nil
		}
		if h := imageHash(r); h != c.inv {
			return fmt.Errorf("reconstruction hash %016x, want %016x", h, c.inv)
		}
		return nil
	})
	if ok {
		st.calls = append(st.calls, call{key: 2*ci + 1, mpix: mpix, ms: ms(dt)})
	}
}

// sceneMetrics derives the end-to-end figures from the median time of
// each call type (case and direction), so one slow call moves a figure
// by at most its type's share: megapixels per second of forward and of
// inverse transform time, calls per second of transform time, and the
// latency percentiles over the calls, each call counted at its type's
// median. With 18 call types of widely different cost, raw percentiles
// would flip between neighbouring types from run to run.
func sceneMetrics(st *loopStats) map[string]float64 {
	times := map[int][]float64{}
	mpix := map[int]float64{}
	for _, c := range st.calls {
		times[c.key] = append(times[c.key], c.ms)
		mpix[c.key] = c.mpix
	}
	var fwdMpix, fwdS, invMpix, invS float64
	var lat []float64
	for k, ts := range times {
		med := median(ts)
		if k%2 == 0 {
			fwdMpix, fwdS = fwdMpix+mpix[k], fwdS+med/1e3
		} else {
			invMpix, invS = invMpix+mpix[k], invS+med/1e3
		}
		for range ts {
			lat = append(lat, med)
		}
	}
	return map[string]float64{
		"decompose_mpix_per_s":   fwdMpix / fwdS,
		"reconstruct_mpix_per_s": invMpix / invS,
		"requests_per_s":         float64(len(times)) / (fwdS + invS),
		"latency_p50_ms":         quantile(lat, 0.5),
		"latency_p95_ms":         quantile(lat, 0.95),
	}
}
