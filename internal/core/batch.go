package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// Batch throughput: the paper's closing motivation is sustained image
// rates ("real-time video, multimedia applications, and scientific and
// medical applications"; NASA's EOSDIS streams of Thematic Mapper
// bands). DecomposeBatch processes a stream of images through a worker
// pool, exploiting image-level parallelism on top of (or instead of) the
// per-image parallel transform.

// BatchResult pairs each input's pyramid with its position.
type BatchResult struct {
	Pyramids []*wavelet.Pyramid
}

// DecomposeBatch decomposes every image with the given bank, depth and
// drift tolerance using a pool of workers (0 = GOMAXPROCS). Outputs are
// order-preserving and bit-identical to calling wavelet.DecomposeTol on
// each input. All images must share dimensions decomposable to the
// requested depth; the first offending image aborts the batch before
// any work starts. Once ctx ends, workers skip every image not yet
// started and the call returns the context's error (images already in
// flight run to completion, so the cancellation latency is one
// transform). The serve layer's micro-batching uses this to honor
// deadlines between images.
func DecomposeBatch(ctx context.Context, images []*image.Image, bank *filter.Bank, ext filter.Extension, levels, workers int, tol float64) (*BatchResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]*wavelet.Pyramid, len(images))
	for i, im := range images {
		if err := wavelet.CheckDecomposable(im.Rows, im.Cols, levels); err != nil {
			return nil, fmt.Errorf("core: batch image %d: %w", i, err)
		}
		out[i] = wavelet.NewPyramid(im.Rows, im.Cols, bank, ext, levels)
	}
	sch := wavelet.LiftingFor(bank, ext, tol)
	var wg sync.WaitGroup
	jobs := make(chan int)
	if workers > len(images) {
		workers = len(images)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() == nil {
					wavelet.DecomposeRanges(out[i], images[i], sch, whole)
				}
			}
		}()
	}
	for i := range images {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: batch canceled: %w", err)
	}
	return &BatchResult{Pyramids: out}, nil
}

// whole is the sequential wavelet.RangeRunner a batch worker drives its
// image with: each pass is one range on the worker's own goroutine.
func whole(n int, fn func(lo, hi int)) { fn(0, n) }

// BandEnergyProfile summarizes a multi-band decomposition: per band, the
// fraction of energy captured by the approximation subband — the
// compaction statistic driving the paper's compression use case across
// Thematic Mapper bands.
func (b *BatchResult) BandEnergyProfile() []float64 {
	out := make([]float64, len(b.Pyramids))
	for i, p := range b.Pyramids {
		if p == nil {
			continue
		}
		if total := p.Energy(); total > 0 {
			out[i] = p.Approx.Energy() / total
		}
	}
	return out
}
