// Package core implements the paper's parallel wavelet decomposition
// algorithms:
//
//   - a real shared-memory parallel decomposition using goroutines (the
//     modern stand-in for the paper's coarse-grain parallelism, producing
//     genuine wall-clock speedups on multicore hosts);
//   - the simulated Intel Paragon SPMD implementation with striped domain
//     decomposition, per-level guard-zone exchange, and snake-like versus
//     naive rank placement (the paper's Section 4.2 and Figures 3-7);
//   - the block-decomposition variant the paper argues against (Figure 3),
//     kept as an ablation;
//   - the experiment drivers that regenerate Appendix A's figures and
//     Table 1.
package core

import (
	"runtime"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/wavelet/kernel"
)

// ParallelDecompose performs a levels-deep Mallat decomposition of im
// using the given number of worker goroutines (0 means GOMAXPROCS). The
// result is bit-identical to wavelet.Decompose regardless of worker
// count: a persistent pool (one goroutine set for the whole transform)
// hands out row ranges for the row pass and column-panel ranges for the
// cache-blocked column pass, and every range is filtered by the same
// internal/wavelet/kernel code the sequential fast path uses. Scratch
// comes from the shared kernel arena pool, so only the retained pyramid
// bands are allocated.
func ParallelDecompose(im *image.Image, bank *filter.Bank, ext filter.Extension, levels, workers int) (*wavelet.Pyramid, error) {
	return ParallelDecomposeTol(im, bank, ext, levels, workers, 0)
}

// ParallelDecomposeTol is ParallelDecompose with a drift tolerance: when
// (bank, ext, tol) admit the lifting tier (wavelet.LiftingFor), each
// level runs the fused lifting sweeps — one scatter row pass, then the
// in-place column pass over disjoint panels — on the same worker pool.
// Both tiers are deterministic in the worker count: every range is
// column- or row-independent, so the parallel output is bit-identical to
// the corresponding sequential tier (wavelet.DecomposeTol), and with
// tol = 0 to wavelet.Decompose.
func ParallelDecomposeTol(im *image.Image, bank *filter.Bank, ext filter.Extension, levels, workers int, tol float64) (*wavelet.Pyramid, error) {
	if err := wavelet.CheckDecomposable(im.Rows, im.Cols, levels); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sch := wavelet.LiftingFor(bank, ext, tol)
	pool := newWorkerPool(workers)
	defer pool.Close()
	ar := kernel.GetArena()
	defer kernel.PutArena(ar)
	p := wavelet.NewPyramid(im.Rows, im.Cols, bank, ext, levels)
	cur := im
	for l := 0; l < levels; l++ {
		rows, cols := cur.Rows, cur.Cols
		src := cur
		d := &p.Levels[levels-1-l]
		ll := p.Approx
		if l < levels-1 {
			ll = ar.LL(l%2, rows/2, cols/2)
		}
		if sch != nil {
			pool.Ranges(rows, func(r0, r1 int) {
				kernel.LiftRowsRange(ll, d.LH, d.HL, d.HH, src, sch, r0, r1)
			})
			pool.Ranges(cols/2, func(c0, c1 int) {
				kernel.LiftColsRange(ll, d.LH, sch, c0, c1)
				kernel.LiftColsRange(d.HL, d.HH, sch, c0, c1)
			})
		} else {
			li, hi := ar.Intermediate(rows, cols/2)
			pool.Ranges(rows, func(r0, r1 int) {
				kernel.AnalyzeRowsRange(li, hi, src, bank, ext, r0, r1)
			})
			pool.Ranges(cols/2, func(c0, c1 int) {
				kernel.AnalyzeColsRange(ll, d.LH, li, bank, ext, c0, c1)
				kernel.AnalyzeColsRange(d.HL, d.HH, hi, bank, ext, c0, c1)
			})
		}
		cur = ll
	}
	return p, nil
}

// ParallelReconstruct inverts ParallelDecompose with the given worker
// count (0 means GOMAXPROCS). It runs wavelet.ReconstructRanges — the
// level driver behind wavelet.Reconstruct — on one persistent pool that
// serves every level, handing out column ranges for the panel-blocked
// column pass and row ranges for the in-place row pass. The result is
// bit-identical to wavelet.Reconstruct regardless of worker count. A
// pyramid whose bands do not chain panics with a *wavelet.UsageError on
// the calling goroutine, before any work reaches the pool.
func ParallelReconstruct(p *wavelet.Pyramid, workers int) *image.Image {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := newWorkerPool(workers)
	defer pool.Close()
	return wavelet.ReconstructRanges(p, pool.Ranges)
}
