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
)

// ParallelDecomposeTol performs a levels-deep Mallat decomposition of
// im using the given number of worker goroutines (0 means GOMAXPROCS).
// It runs wavelet.DecomposeRanges, the level driver behind
// wavelet.DecomposeTol, on a persistent pool (one goroutine set for the
// whole transform) under the tier wavelet.LiftingFor picks. On either
// tier each level is one sweep and one pool barrier: each worker gets a
// range of the level's output rows for the fused convolution sweep, or,
// on the lifting tier (a tolerance that covers the bank's scheme,
// periodic extension), for the fused lifting sweep, which recomputes its
// range's halo rows itself. Every range writes its own outputs and
// computes them in the sequential order with the same
// internal/wavelet/kernel code, so the result is bit-identical to
// wavelet.DecomposeTol regardless of worker count, and with tol = 0 to
// wavelet.Decompose. Range scratch comes from the shared kernel pools,
// so only the retained pyramid bands are allocated.
func ParallelDecomposeTol(im *image.Image, bank *filter.Bank, ext filter.Extension, levels, workers int, tol float64) (*wavelet.Pyramid, error) {
	if err := wavelet.CheckDecomposable(im.Rows, im.Cols, levels); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := newWorkerPool(workers)
	defer pool.Close()
	p := wavelet.NewPyramid(im.Rows, im.Cols, bank, ext, levels)
	wavelet.DecomposeRanges(p, im, wavelet.LiftingFor(bank, ext, tol), pool.Ranges)
	return p, nil
}

// ParallelReconstruct inverts ParallelDecomposeTol with the given worker
// count (0 means GOMAXPROCS). It runs wavelet.ReconstructRanges — the
// level driver behind wavelet.Reconstruct — on one persistent pool that
// serves every level, handing each worker a range of the level's output
// rows for the fused synthesis sweep: one pool barrier per level. Range
// scratch comes from the shared kernel pool, so only the returned image
// is allocated per call beyond the pool itself. The result is
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
