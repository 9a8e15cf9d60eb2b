package core

import (
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// Regression coverage for the DecLen/RecLen split in the distributed
// paths: with biorthogonal banks the analysis and synthesis filters
// have different lengths, so the guard-row sizing of the decompose
// direction (DecLen) and of the reconstruct direction (RecLen) diverge.
// Before the four-vector bank model both were a single Len() and a
// mixed-length bank would have over- or under-provisioned one side.

func mustBank(t *testing.T, name string) *filter.Bank {
	t.Helper()
	b, err := filter.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDistributedDecomposeBiorthogonal(t *testing.T) {
	im := testImage()
	for _, tc := range []struct {
		bank   string
		levels int
		p      int
	}{
		{"cdf5/3", 2, 4},  // 5-tap analysis, 4/6-tap synthesis
		{"cdf5/3", 1, 8},  // odd filter length through the guard sizing
		{"bior4.4", 2, 4}, // 9-tap analysis
		{"rbio4.4", 1, 8}, // 8/10-tap analysis pair (split kernels)
	} {
		bank := mustBank(t, tc.bank)
		seq, err := wavelet.Decompose(im, bank, filter.Periodic, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DistributedDecompose(im, distCfg(tc.p, bank, tc.levels))
		if err != nil {
			t.Fatalf("%s L=%d P=%d: %v", tc.bank, tc.levels, tc.p, err)
		}
		if !pyramidsEqual(seq, res.Pyramid, 1e-9) {
			t.Errorf("%s L=%d P=%d: distributed != sequential", tc.bank, tc.levels, tc.p)
		}
	}
}

func TestDistributedDecomposeBiorthogonalOverlap(t *testing.T) {
	// The Overlap fast path computes interior output rows while guard
	// exchange is in flight; its interior bound must respect the odd
	// 9-tap analysis length of bior4.4.
	im := testImage()
	bank := mustBank(t, "bior4.4")
	seq, err := wavelet.Decompose(im, bank, filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := distCfg(4, bank, 2)
	cfg.Overlap = true
	res, err := DistributedDecompose(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pyramidsEqual(seq, res.Pyramid, 1e-9) {
		t.Error("overlapped distributed != sequential with bior4.4")
	}
}

func TestDistributedReconstructBiorthogonal(t *testing.T) {
	im := testImage()
	for _, tc := range []struct {
		bank   string
		levels int
		p      int
	}{
		{"cdf5/3", 2, 4},
		{"bior4.4", 1, 4},
		{"rbio4.4", 1, 4},
	} {
		bank := mustBank(t, tc.bank)
		pyr, err := wavelet.Decompose(im, bank, filter.Periodic, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		back, sim, err := DistributedReconstruct(pyr, distCfg(tc.p, bank, tc.levels))
		if err != nil {
			t.Fatalf("%s L=%d P=%d: %v", tc.bank, tc.levels, tc.p, err)
		}
		if !image.Equal(im, back, 1e-8) {
			t.Errorf("%s L=%d P=%d: reconstruction mismatch", tc.bank, tc.levels, tc.p)
		}
		if sim.Elapsed <= 0 {
			t.Errorf("%s: no elapsed time", tc.bank)
		}
	}
}

func TestBlockDecomposeBiorthogonal(t *testing.T) {
	im := testImage()
	for _, name := range []string{"cdf5/3", "bior4.4"} {
		bank := mustBank(t, name)
		seq, err := wavelet.Decompose(im, bank, filter.Periodic, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BlockDecompose(im, distCfg(4, bank, 2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !pyramidsEqual(seq, res.Pyramid, 1e-9) {
			t.Errorf("%s: block != sequential", name)
		}
	}
}

func TestParallelDecomposeBiorthogonal(t *testing.T) {
	im := testImage()
	bank := mustBank(t, "bior4.4")
	seq, err := wavelet.Decompose(im, bank, filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		par, err := ParallelDecomposeTol(im, bank, filter.Periodic, 3, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !pyramidsEqual(seq, par, 0) {
			t.Errorf("workers=%d: parallel != sequential for bior4.4", workers)
		}
	}
	back := ParallelReconstruct(seq, 0)
	if !image.Equal(im, back, 1e-8) {
		t.Error("ParallelReconstruct mismatch for bior4.4")
	}
}
