package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// Mixed-tier stress: convolution and lifting callers share the one
// kernel arena pool, so a lifting transform must never observe a
// convolution transform's scratch and vice versa. Under -race this also
// proves the cached factorization (filter.Lifting's sync.Map) is safe to
// resolve from many goroutines at once.

// stressPyramidsWithinEps fails when got drifts from ref by more than
// eps in relative max-abs terms.
func stressPyramidsWithinEps(t *testing.T, label string, ref, got *wavelet.Pyramid, eps float64) {
	t.Helper()
	var maxDiff, maxRef float64
	accum := func(a, b *image.Image) {
		for r := 0; r < a.Rows; r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				maxDiff = math.Max(maxDiff, math.Abs(ra[c]-rb[c]))
				maxRef = math.Max(maxRef, math.Abs(ra[c]))
			}
		}
	}
	accum(ref.Approx, got.Approx)
	for i := range ref.Levels {
		accum(ref.Levels[i].LH, got.Levels[i].LH)
		accum(ref.Levels[i].HL, got.Levels[i].HL)
		accum(ref.Levels[i].HH, got.Levels[i].HH)
	}
	if maxRef == 0 {
		maxRef = 1
	}
	if maxDiff/maxRef > eps {
		t.Errorf("%s: drift %.3g exceeds eps %.3g", label, maxDiff/maxRef, eps)
	}
}

// TestConcurrentMixedTierStress interleaves lifting-tier and
// convolution-tier transforms — sequential, parallel, batch, and
// steady-state Decomposers — all drawing from the shared arena pool.
func TestConcurrentMixedTierStress(t *testing.T) {
	const levels = 3
	bank := filter.Daubechies8()
	ext := filter.Periodic
	sch := wavelet.LiftingFor(bank, ext, 1)
	if sch == nil {
		t.Fatal("db8/periodic should admit lifting")
	}
	eps := sch.Eps

	const goroutines = 8
	images := make([]*image.Image, goroutines)
	refs := make([]*wavelet.Pyramid, goroutines)
	for g := range images {
		images[g] = image.Landsat(64, 128, uint64(100+g))
		p, err := wavelet.DecomposeReference(images[g], bank, ext, levels)
		if err != nil {
			t.Fatal(err)
		}
		refs[g] = p
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dec := wavelet.NewDecomposerTol(bank, ext, levels, eps)
			for it := 0; it < 4; it++ {
				switch (g + it) % 4 {
				case 0:
					// Lifting, sequential one-shot (pooled arena).
					p, err := wavelet.DecomposeTol(images[g], bank, ext, levels, eps)
					if err != nil {
						t.Error(err)
						return
					}
					stressPyramidsWithinEps(t, "lift-seq", refs[g], p, eps)
				case 1:
					// Lifting, parallel (pooled arena, worker pool).
					p, err := ParallelDecomposeTol(images[g], bank, ext, levels, 3, eps)
					if err != nil {
						t.Error(err)
						return
					}
					stressPyramidsWithinEps(t, "lift-par", refs[g], p, eps)
				case 2:
					// Convolution, bit-identical, same arena pool.
					p, err := wavelet.Decompose(images[g], bank, ext, levels)
					if err != nil {
						t.Error(err)
						return
					}
					stressPyramidsBitIdentical(t, "conv", refs[g], p)
				default:
					// Lifting steady state on a private Decomposer.
					p, err := dec.Decompose(images[g])
					if err != nil {
						t.Error(err)
						return
					}
					stressPyramidsWithinEps(t, "lift-decomposer", refs[g], p, eps)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParallelLiftingDeterministicInWorkers: the lifting tier, like the
// convolution tier, must produce bit-identical output at any worker
// count — rows and column panels are fully independent.
func TestParallelLiftingDeterministicInWorkers(t *testing.T) {
	bank, err := filter.ByName("cdf5/3")
	if err != nil {
		t.Fatal(err)
	}
	sch := wavelet.LiftingFor(bank, filter.Periodic, 1)
	if sch == nil {
		t.Fatal("cdf5/3 should admit lifting")
	}
	im := image.Landsat(96, 160, 5)
	seq, err := wavelet.DecomposeTol(im, bank, filter.Periodic, 4, sch.Eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7} {
		p, err := ParallelDecomposeTol(im, bank, filter.Periodic, 4, workers, sch.Eps)
		if err != nil {
			t.Fatal(err)
		}
		stressPyramidsBitIdentical(t, "workers", seq, p)
	}
	// Batch rides the same tier.
	res, err := DecomposeBatch(context.Background(), []*image.Image{im, im}, bank, filter.Periodic, 4, 2, sch.Eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Pyramids {
		stressPyramidsBitIdentical(t, "batch", seq, p)
	}
}
