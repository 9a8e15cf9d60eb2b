package core

import (
	"context"
	"errors"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

func TestDecomposeBatchMatchesIndividual(t *testing.T) {
	bands := image.LandsatBands(64, 64, 7, 3)
	for _, workers := range []int{0, 1, 3, 16} {
		res, err := DecomposeBatch(context.Background(), bands, filter.Daubechies8(), filter.Periodic, 2, workers, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Pyramids) != 7 {
			t.Fatalf("workers=%d: %d pyramids", workers, len(res.Pyramids))
		}
		for i, im := range bands {
			want, _ := wavelet.Decompose(im, filter.Daubechies8(), filter.Periodic, 2)
			if !image.Equal(want.Approx, res.Pyramids[i].Approx, 0) {
				t.Errorf("workers=%d band %d: batch result differs", workers, i)
			}
		}
	}
}

func TestDecomposeBatchEmpty(t *testing.T) {
	res, err := DecomposeBatch(context.Background(), nil, filter.Haar(), filter.Periodic, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pyramids) != 0 {
		t.Error("empty batch produced pyramids")
	}
}

func TestDecomposeBatchValidatesUpFront(t *testing.T) {
	images := []*image.Image{image.New(64, 64), image.New(60, 64)}
	if _, err := DecomposeBatch(context.Background(), images, filter.Haar(), filter.Periodic, 3, 2, 0); err == nil {
		t.Error("undecomposable image accepted")
	}
}

func TestBandEnergyProfile(t *testing.T) {
	bands := image.LandsatBands(64, 64, 4, 9)
	res, err := DecomposeBatch(context.Background(), bands, filter.Daubechies8(), filter.Periodic, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	profile := res.BandEnergyProfile()
	if len(profile) != 4 {
		t.Fatalf("profile length %d", len(profile))
	}
	for b, frac := range profile {
		// Terrain-like bands compact strongly.
		if frac < 0.9 || frac > 1 {
			t.Errorf("band %d compaction %g", b, frac)
		}
	}
}

func TestDecomposeBatchCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bands := image.LandsatBands(64, 64, 4, 5)
	if _, err := DecomposeBatch(ctx, bands, filter.Haar(), filter.Periodic, 2, 2, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDecomposeBatchCtxMatchesBackground: a live context that never
// ends leaves the batch Float64bits-identical to one run under
// context.Background.
func TestDecomposeBatchCtxMatchesBackground(t *testing.T) {
	bands := image.LandsatBands(32, 32, 3, 8)
	plain, err := DecomposeBatch(context.Background(), bands, filter.Daubechies4(), filter.Periodic, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, err := DecomposeBatch(ctx, bands, filter.Daubechies4(), filter.Periodic, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bands {
		if !image.EqualBits(plain.Pyramids[i].Approx, ctxed.Pyramids[i].Approx) {
			t.Errorf("band %d: ctx batch diverged", i)
		}
	}
}
