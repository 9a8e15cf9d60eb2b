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

// Concurrency stress: many goroutines run ParallelDecomposeTol and
// DecomposeBatch at once, all drawing scratch from the shared kernel
// arena pool. Under -race this proves the pool hands each transform a
// private arena; the bitwise check proves no transform ever observes
// another's scratch.

func stressPyramidsBitIdentical(t *testing.T, label string, ref, got *wavelet.Pyramid) {
	t.Helper()
	check := func(band string, a, b *image.Image) {
		for r := 0; r < a.Rows; r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				if math.Float64bits(ra[c]) != math.Float64bits(rb[c]) {
					t.Errorf("%s/%s (%d,%d): %g vs %g", label, band, r, c, ra[c], rb[c])
					return
				}
			}
		}
	}
	check("approx", ref.Approx, got.Approx)
	for i := range ref.Levels {
		check("LH", ref.Levels[i].LH, got.Levels[i].LH)
		check("HL", ref.Levels[i].HL, got.Levels[i].HL)
		check("HH", ref.Levels[i].HH, got.Levels[i].HH)
	}
}

func TestConcurrentDecomposeStress(t *testing.T) {
	const (
		goroutines = 8
		iterations = 4
		levels     = 3
	)
	bank := filter.Daubechies8()
	ext := filter.Periodic

	// Distinct image per goroutine, plus the reference pyramid computed
	// up front on the sequential reference path.
	images := make([]*image.Image, goroutines)
	refs := make([]*wavelet.Pyramid, goroutines)
	for g := range images {
		images[g] = image.Landsat(64, 128, uint64(g+1))
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
			for it := 0; it < iterations; it++ {
				switch (g + it) % 3 {
				case 0:
					p, err := ParallelDecomposeTol(images[g], bank, ext, levels, 3, 0)
					if err != nil {
						t.Error(err)
						return
					}
					stressPyramidsBitIdentical(t, "parallel", refs[g], p)
				case 1:
					p, err := wavelet.Decompose(images[g], bank, ext, levels)
					if err != nil {
						t.Error(err)
						return
					}
					stressPyramidsBitIdentical(t, "fast", refs[g], p)
				default:
					res, err := DecomposeBatch(context.Background(), images, bank, ext, levels, 2, 0)
					if err != nil {
						t.Error(err)
						return
					}
					for i, p := range res.Pyramids {
						stressPyramidsBitIdentical(t, "batch", refs[i], p)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentDecomposerStress exercises per-goroutine Decomposer
// steady state (each owns private buffers) concurrently with pooled
// one-shot transforms.
func TestConcurrentDecomposerStress(t *testing.T) {
	bank := filter.Daubechies4()
	im := image.Landsat(64, 64, 77)
	ref, err := wavelet.DecomposeReference(im, bank, filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := wavelet.NewDecomposer(bank, filter.Periodic, 2)
			for it := 0; it < 8; it++ {
				p, err := d.Decompose(im)
				if err != nil {
					t.Error(err)
					return
				}
				stressPyramidsBitIdentical(t, "decomposer", ref, p)
			}
		}()
	}
	wg.Wait()
}
