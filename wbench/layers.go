package main

import (
	"bytes"
	"context"
	"fmt"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"wavelethpc/internal/core"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/serve"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/wavelet/kernel"
)

// Layer probes: the benchmark times calls into each module's public
// functions directly, on the workload's own shapes and payloads, and
// checks every probed output as the workloads do.

const probeLevels = 5

// repsFor picks a repetition count that keeps each timed median near
// budget samples of work, within [lo, hi].
func repsFor(samples, budget, lo, hi int) int {
	return min(max(budget/max(samples, 1), lo), hi)
}

// probeKernel times the row and column sweeps per level for the
// convolution tier (db8) and the lifting tier (rbio4.4), checks the
// assembled pyramids Float64bits-identical to the Decomposer's, and
// reports computed work counts and bandwidths.
func probeKernel(im *image.Image, m map[string]float64) error {
	conv := convBank("db8")
	want, err := wavelet.NewDecomposer(conv.bank, filter.Periodic, probeLevels).Decompose(im)
	if err != nil {
		return err
	}
	p := wavelet.NewPyramid(im.Rows, im.Cols, conv.bank, filter.Periodic, probeLevels)
	var sweep time.Duration
	var bytesMoved float64
	cur := im
	for l := 0; l < probeLevels; l++ {
		r, c := cur.Rows, cur.Cols
		reps := repsFor(r*c, 1<<23, 5, 400)
		li, hi := image.New(r, c/2), image.New(r, c/2)
		ll := p.Approx
		if l < probeLevels-1 {
			ll = image.New(r/2, c/2)
		}
		d := &p.Levels[probeLevels-1-l]
		src := cur
		rows := timeReps(reps, func() { kernel.AnalyzeRowsRange(li, hi, src, conv.bank, filter.Periodic, 0, r) })
		cols := timeReps(reps, func() {
			kernel.AnalyzeColsRange(ll, d.LH, li, conv.bank, filter.Periodic, 0, c/2)
			kernel.AnalyzeColsRange(d.HL, d.HH, hi, conv.bank, filter.Periodic, 0, c/2)
		})
		lv := ".l" + strconv.Itoa(l+1)
		m["kernel.conv_rows_ms"+lv] = ms(rows)
		m["kernel.conv_cols_ms"+lv] = ms(cols)
		sweep += rows + cols
		// Each sweep reads and writes one level-sized float64 array.
		bytesMoved += 2 * 16 * float64(r*c)
		cur = ll
	}
	if pyramidHash(p) != pyramidHash(want) {
		return fmt.Errorf("kernel probe: convolution sweeps differ from the Decomposer")
	}
	macs := float64(wavelet.DecomposeMACs(im.Rows, im.Cols, len(conv.bank.DecLo), probeLevels))
	m["kernel.macs"] = macs
	m["kernel.bytes_moved"] = bytesMoved
	m["kernel.ops_per_byte"] = 2 * macs / bytesMoved
	m["kernel.gbps"] = bytesMoved / sweep.Seconds() / 1e9

	src, dst := make([]float64, im.Rows*im.Cols), make([]float64, im.Rows*im.Cols)
	cp := timeReps(repsFor(im.Rows*im.Cols, 1<<24, 5, 400), func() { copy(dst, src) })
	m["kernel.copy_gbps"] = 16 * float64(im.Rows*im.Cols) / cp.Seconds() / 1e9
	m["kernel.llc_mib"] = llcMiB()

	lift := liftedBank("rbio4.4")
	sch := wavelet.LiftingFor(lift.bank, filter.Periodic, lift.tol)
	want, err = wavelet.NewDecomposerTol(lift.bank, filter.Periodic, probeLevels, lift.tol).Decompose(im)
	if err != nil {
		return err
	}
	p = wavelet.NewPyramid(im.Rows, im.Cols, lift.bank, filter.Periodic, probeLevels)
	cur = im
	for l := 0; l < probeLevels; l++ {
		r, c := cur.Rows, cur.Cols
		reps := repsFor(r*c, 1<<23, 5, 400)
		ll := p.Approx
		if l < probeLevels-1 {
			ll = image.New(r/2, c/2)
		}
		d := &p.Levels[probeLevels-1-l]
		rowTimes, colTimes := make([]float64, reps), make([]float64, reps)
		for k := 0; k < reps; k++ {
			// The column sweeps lift in place, so every repetition
			// starts again from the row sweep's output.
			t := time.Now()
			kernel.LiftRowsRange(ll, d.LH, d.HL, d.HH, cur, sch, 0, r)
			rowTimes[k] = float64(time.Since(t))
			t = time.Now()
			kernel.LiftColsRange(ll, d.LH, sch, 0, c/2)
			kernel.LiftColsRange(d.HL, d.HH, sch, 0, c/2)
			colTimes[k] = float64(time.Since(t))
		}
		lv := ".l" + strconv.Itoa(l+1)
		m["kernel.lift_rows_ms"+lv] = ms(time.Duration(median(rowTimes)))
		m["kernel.lift_cols_ms"+lv] = ms(time.Duration(median(colTimes)))
		cur = ll
	}
	if pyramidHash(p) != pyramidHash(want) {
		return fmt.Errorf("kernel probe: lifting sweeps differ from the Decomposer")
	}
	return nil
}

// allocs runs fn reps times and returns heap allocations and bytes per
// call.
func allocs(reps int, fn func()) (count, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(reps), float64(b.TotalAlloc-a.TotalAlloc) / float64(reps)
}

// probeTransforms times the steady-state Decomposer and the reference
// Reconstruct (wavelet), and the worker-pool transforms at 1 and 2
// workers (core).
func probeTransforms(im *image.Image, m map[string]float64) error {
	conv, lift := convBank("db8"), liftedBank("rbio4.4")
	reps := repsFor(im.Rows*im.Cols, 1<<24, 3, 200)
	dc := wavelet.NewDecomposer(conv.bank, filter.Periodic, probeLevels)
	dl := wavelet.NewDecomposerTol(lift.bank, filter.Periodic, probeLevels, lift.tol)
	ref, err := dc.Decompose(im)
	if err != nil {
		return err
	}
	ref = ref.Clone()
	if _, err := dl.Decompose(im); err != nil {
		return err
	}
	m["wavelet.decompose_ms.conv"] = ms(timeReps(reps, func() { dc.Decompose(im) }))
	m["wavelet.decompose_ms.lift"] = ms(timeReps(reps, func() { dl.Decompose(im) }))
	n, _ := allocs(reps, func() { dc.Decompose(im); dl.Decompose(im) })
	m["wavelet.decompose_allocs"] = n / 2
	m["wavelet.reconstruct_ms"] = ms(timeReps(reps, func() { wavelet.Reconstruct(ref) }))
	_, m["wavelet.reconstruct_alloc_bytes"] = allocs(reps, func() { wavelet.Reconstruct(ref) })
	wantRecon := imageHash(wavelet.Reconstruct(ref))

	for _, w := range []int{1, 2} {
		var p *wavelet.Pyramid
		d := timeReps(reps, func() {
			p, err = core.ParallelDecomposeTol(im, conv.bank, filter.Periodic, probeLevels, w, 0)
		})
		if err != nil {
			return err
		}
		if pyramidHash(p) != pyramidHash(ref) {
			return fmt.Errorf("core probe: %d-worker decomposition differs from the Decomposer", w)
		}
		var r *image.Image
		rd := timeReps(reps, func() { r = core.ParallelReconstruct(ref, w) })
		if imageHash(r) != wantRecon {
			return fmt.Errorf("core probe: %d-worker reconstruction differs from Reconstruct", w)
		}
		m["core.decompose_ms.w"+strconv.Itoa(w)] = ms(d)
		m["core.reconstruct_ms.w"+strconv.Itoa(w)] = ms(rd)
	}
	m["core.decompose_speedup"] = m["core.decompose_ms.w1"] / m["core.decompose_ms.w2"]
	m["core.reconstruct_speedup"] = m["core.reconstruct_ms.w1"] / m["core.reconstruct_ms.w2"]
	_, m["core.reconstruct_alloc_bytes"] = allocs(reps, func() { core.ParallelReconstruct(ref, 2) })
	m["core.pool_overhead_ms"] = m["core.decompose_ms.w1"] - m["wavelet.decompose_ms.conv"]
	return nil
}

// probeProto runs each codec over the workload's payloads and reports
// the mean over payloads of each codec's median time per payload.
func probeProto(images []*image.Image, m map[string]float64) error {
	sums := map[string]float64{}
	q := url.Values{"bank": {"db8"}, "levels": {strconv.Itoa(httpLevels)}, "output": {proto.OutputPyramid}}
	for _, im := range images {
		reps := repsFor(im.Rows*im.Cols, 1<<21, 3, 200)
		p, err := wavelet.Decompose(im, filter.Daubechies8(), filter.Periodic, httpLevels)
		if err != nil {
			return err
		}
		var raster, pyr, pgm bytes.Buffer
		var imOut, pgmOut *image.Image
		var pOut *wavelet.Pyramid
		timed := []struct {
			name string
			fn   func()
		}{
			{"encode_raster", func() { raster.Reset(); err = proto.EncodeRaster(&raster, im) }},
			{"decode_raster", func() { imOut, err = proto.DecodeRaster(bytes.NewReader(raster.Bytes())) }},
			{"encode_pyramid", func() { pyr.Reset(); err = proto.EncodePyramid(&pyr, p) }},
			{"decode_pyramid", func() { pOut, err = proto.DecodePyramid(bytes.NewReader(pyr.Bytes())) }},
			{"write_pgm", func() { pgm.Reset(); err = image.WritePGM(&pgm, im) }},
			{"read_pgm", func() { pgmOut, err = image.ReadPGM(bytes.NewReader(pgm.Bytes())) }},
			{"route_info", func() {
				if info := proto.ParseRouteInfo(q, proto.ContentTypeRaster, raster.Bytes()); !info.OK {
					err = fmt.Errorf("route info not parsed")
				}
			}},
		}
		for _, c := range timed {
			sums[c.name] += us(timeReps(reps, c.fn))
			if err != nil {
				return fmt.Errorf("proto probe %s: %w", c.name, err)
			}
		}
		if !image.EqualBits(im, imOut) || !image.EqualBits(im, pgmOut) || pyramidHash(pOut) != pyramidHash(p) {
			return fmt.Errorf("proto probe: a codec round trip changed its payload")
		}
	}
	for name, s := range sums {
		m["proto."+name+"_us"] = s / float64(len(images))
	}
	return nil
}

// probeServeDo times serve.Server.Do in process, without HTTP, over the
// service mix's distinct Decompose requests.
func probeServeDo(o options, m map[string]float64) error {
	e, err := genService(o)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Workers: o.workers, Levels: httpLevels})
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())
	var times []float64
	for pass := 0; pass < 6; pass++ {
		for i := range e.ops {
			op := &e.ops[i]
			if op.kind != opDecompose {
				continue
			}
			t := time.Now()
			res, err := srv.Do(context.Background(), serve.Request{
				Image: e.images[op.img], Bank: op.bank.bank, Levels: httpLevels, Tolerance: op.bank.tol,
			})
			dt := time.Since(t)
			if err != nil {
				return fmt.Errorf("serve probe: %w", err)
			}
			err = op.want.check(res.Pyramid)
			res.Close()
			if err != nil {
				return fmt.Errorf("serve probe: %w", err)
			}
			if pass > 0 { // the first pass warms the Decomposer pools
				times = append(times, us(dt))
			}
		}
	}
	m["serve.do_us"] = median(times)
	return nil
}
