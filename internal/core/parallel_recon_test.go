package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// requireImagesBitIdentical fails unless a and b match in shape and in
// every coefficient's 64-bit pattern.
func requireImagesBitIdentical(t *testing.T, label string, want, got *image.Image) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for r := 0; r < want.Rows; r++ {
		wr, gr := want.Row(r), got.Row(r)
		for c := range wr {
			if math.Float64bits(wr[c]) != math.Float64bits(gr[c]) {
				t.Fatalf("%s at (%d,%d): %g (%#x), want %g (%#x)",
					label, r, c, gr[c], math.Float64bits(gr[c]), wr[c], math.Float64bits(wr[c]))
			}
		}
	}
}

// withSignedZeros thresholds a copy of p and turns every other zeroed
// detail coefficient, and the approximation's first row, into -0.
func withSignedZeros(p *wavelet.Pyramid) *wavelet.Pyramid {
	p = p.Clone()
	p.Threshold(p.Energy() / 64)
	neg := math.Copysign(0, -1)
	flip := func(b *image.Image) {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			for c := range row {
				if row[c] == 0 && (r+c)%2 == 1 {
					row[c] = neg
				}
			}
		}
	}
	for _, d := range p.Levels {
		flip(d.LH)
		flip(d.HL)
		flip(d.HH)
	}
	for c := range p.Approx.Row(0) {
		p.Approx.Row(0)[c] = neg
	}
	return p
}

// TestParallelReconstructBitIdentical: ParallelReconstruct at 1, 2 and
// 3 workers, and with more workers than the image has columns, matches
// wavelet.ReconstructReference bit for bit over every catalog bank ×
// extension, square and non-square shapes, coarsest bands shorter than
// the filter, and thresholded pyramids holding exact ±0.
func TestParallelReconstructBitIdentical(t *testing.T) {
	shapes := [][3]int{{32, 32, 2}, {16, 48, 3}, {40, 8, 2}}
	for _, name := range filter.Names() {
		bank := mustBank(t, name)
		for _, ext := range []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero} {
			for _, sh := range shapes {
				p, err := wavelet.Decompose(image.Landsat(sh[0], sh[1], 11), bank, ext, sh[2])
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range []*wavelet.Pyramid{p, withSignedZeros(p)} {
					want := wavelet.ReconstructReference(q)
					for _, w := range []int{1, 2, 3, sh[1] + 1} {
						label := fmt.Sprintf("%s/%s/%dx%d/w%d", name, ext, sh[0], sh[1], w)
						requireImagesBitIdentical(t, label, want, ParallelReconstruct(q, w))
					}
				}
			}
		}
	}
}

// TestParallelReconstructMalformedPyramid is the regression for a
// pyramid whose bands do not chain: it used to index out of range
// inside a pool goroutine, killing the process. It must now panic with
// a *wavelet.UsageError on the caller, as the sequential inverse does.
func TestParallelReconstructMalformedPyramid(t *testing.T) {
	p, err := wavelet.Decompose(image.Landsat(32, 32, 4), filter.Daubechies8(), filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.Levels[len(p.Levels)-1].LH = image.New(16, 15) // level 1 LH, one column short
	for _, tc := range []struct {
		label string
		fn    func()
	}{
		{"Reconstruct", func() { wavelet.Reconstruct(p) }},
		{"ParallelReconstruct/w1", func() { ParallelReconstruct(p, 1) }},
		{"ParallelReconstruct/w2", func() { ParallelReconstruct(p, 2) }},
	} {
		func() {
			defer func() {
				if _, ok := recover().(*wavelet.UsageError); !ok {
					t.Errorf("%s: want a recoverable *wavelet.UsageError panic", tc.label)
				}
			}()
			tc.fn()
		}()
	}
}

// TestParallelReconstructAllocBytes: the worker-pool inverse allocates
// the output image, the driver's level state and the pool itself —
// never a full-size intermediate, and no per-range scratch once the
// ring pool is warm.
func TestParallelReconstructAllocBytes(t *testing.T) {
	const n, levels, workers = 512, 5, 2
	p, err := wavelet.Decompose(image.Landsat(n, n, 42), filter.Daubechies8(), filter.Periodic, levels)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ParallelReconstruct(p, workers)
	// The arena and the range rings come from sync.Pools the race
	// detector drains at random; the fewest bytes over several calls is
	// the steady state.
	var fewest uint64 = math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		ParallelReconstruct(p, workers)
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
	}
	// 2 KiB covers the pool's goroutines and channel, one barrier per
	// level and the driver's level state (384 bytes measured).
	limit := uint64(8*n*n + 2<<10)
	if raceEnabled {
		// A race build drops pool puts, so even the fewest of ten calls
		// may rebuild a few rings: allow 24 bytes per column for each
		// worker (a top-level ring takes about 14).
		limit += workers * 24 * n
	}
	if fewest > limit {
		t.Errorf("ParallelReconstruct allocates %d bytes, want <= %d (output %d)", fewest, limit, 8*n*n)
	}
}

// FuzzReconstructEquiv draws bank, extension, shape, depth and worker
// count from the input and requires both inverse entry points to match
// wavelet.ReconstructReference by math.Float64bits, on the decomposed
// pyramid and on a thresholded copy holding exact ±0 coefficients.
func FuzzReconstructEquiv(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(2), uint8(2), uint8(2), uint8(2))
	f.Add(uint8(5), uint8(1), uint8(1), uint8(3), uint8(3), uint8(3))
	f.Add(uint8(17), uint8(2), uint8(4), uint8(0), uint8(1), uint8(7))
	f.Add(uint8(9), uint8(1), uint8(0), uint8(5), uint8(2), uint8(64))
	names := filter.Names()
	exts := []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero}
	f.Fuzz(func(t *testing.T, bankIdx, extIdx, rb, cb, lb, wb uint8) {
		bank := mustBank(t, names[int(bankIdx)%len(names)])
		ext := exts[int(extIdx)%len(exts)]
		levels := 1 + int(lb%4)
		rows := (1 + int(rb%6)) << levels
		cols := (1 + int(cb%6)) << levels
		workers := 1 + int(wb%9)
		p, err := wavelet.Decompose(image.Landsat(rows, cols, uint64(rb)<<8|uint64(cb)), bank, ext, levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []*wavelet.Pyramid{p, withSignedZeros(p)} {
			want := wavelet.ReconstructReference(q)
			requireImagesBitIdentical(t, bank.Name+"/"+ext.String()+"/Reconstruct", want, wavelet.Reconstruct(q))
			requireImagesBitIdentical(t, bank.Name+"/"+ext.String()+"/ParallelReconstruct", want, ParallelReconstruct(q, workers))
		}
	})
}
