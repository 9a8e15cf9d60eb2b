package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// requirePyramidsBitIdentical fails unless every band of got matches
// want coefficient for coefficient by math.Float64bits.
func requirePyramidsBitIdentical(t *testing.T, label string, want, got *wavelet.Pyramid) {
	t.Helper()
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.Levels), len(want.Levels))
	}
	requireImagesBitIdentical(t, label+"/approx", want.Approx, got.Approx)
	for i, d := range want.Levels {
		g := got.Levels[i]
		requireImagesBitIdentical(t, fmt.Sprintf("%s/L%d/LH", label, i), d.LH, g.LH)
		requireImagesBitIdentical(t, fmt.Sprintf("%s/L%d/HL", label, i), d.HL, g.HL)
		requireImagesBitIdentical(t, fmt.Sprintf("%s/L%d/HH", label, i), d.HH, g.HH)
	}
}

// requireForwardEquiv checks every forward entry point at tol 0 against
// wavelet.DecomposeReference on one input: ParallelDecomposeTol at 1, 2
// and 3 workers and with one worker more than the image has rows,
// wavelet.Decompose, the reused decomposer d, and a two-image
// DecomposeBatch.
func requireForwardEquiv(t *testing.T, label string, im *image.Image, bank *filter.Bank, ext filter.Extension, levels int, d *wavelet.Decomposer) {
	t.Helper()
	want, err := wavelet.DecomposeReference(im, bank, ext, levels)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, im.Rows + 1} {
		got, err := ParallelDecomposeTol(im, bank, ext, levels, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		requirePyramidsBitIdentical(t, fmt.Sprintf("%s/ParallelDecomposeTol/w%d", label, w), want, got)
	}
	got, err := wavelet.Decompose(im, bank, ext, levels)
	if err != nil {
		t.Fatal(err)
	}
	requirePyramidsBitIdentical(t, label+"/Decompose", want, got)
	got, err = d.Decompose(im)
	if err != nil {
		t.Fatal(err)
	}
	requirePyramidsBitIdentical(t, label+"/Decomposer", want, got)
	res, err := DecomposeBatch(context.Background(), []*image.Image{im, im}, bank, ext, levels, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res.Pyramids {
		requirePyramidsBitIdentical(t, fmt.Sprintf("%s/DecomposeBatch/%d", label, i), want, got)
	}
}

// TestParallelDecomposeBitIdentical: the fused forward sweep matches
// wavelet.DecomposeReference bit for bit through every entry point, over
// every catalog bank × extension (including an unknown one) and square,
// non-square and tall shapes, one whose deepest level has fewer rows
// than the filter (8×8 at 3 levels), and 128 rows, where an odd-length
// filter's wrapped rows land on the same row index mod the filter
// length as rows at the bottom of the window. One decomposer per bank,
// extension and depth is reused across the shapes, so it also proves
// reuse across shape changes.
func TestParallelDecomposeBitIdentical(t *testing.T) {
	shapes := [][3]int{{32, 32, 2}, {16, 48, 3}, {40, 8, 2}, {8, 8, 3}, {128, 128, 3}}
	exts := []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero, filter.Extension(99)}
	for _, name := range filter.Names() {
		bank := mustBank(t, name)
		for _, ext := range exts {
			decomposers := map[int]*wavelet.Decomposer{}
			for _, sh := range shapes {
				levels := sh[2]
				if decomposers[levels] == nil {
					decomposers[levels] = wavelet.NewDecomposer(bank, ext, levels)
				}
				label := fmt.Sprintf("%s/%s/%dx%d@%d", name, ext, sh[0], sh[1], levels)
				requireForwardEquiv(t, label, image.Landsat(sh[0], sh[1], 11), bank, ext, levels, decomposers[levels])
			}
		}
	}
}

// TestParallelDecomposeOddLengthWrap names the case a row-mod-f ring
// gets wrong: bior4.4 (9-tap analysis pair) and rbio4.4 (8 and 10 taps)
// at 128 rows, where row 126 and the wrapped row 0 share 126 mod 9 = 0.
// The wrapped rows must come from storage apart from the sliding window,
// at every worker count and under both wrapping extensions.
func TestParallelDecomposeOddLengthWrap(t *testing.T) {
	for _, name := range []string{"bior4.4", "rbio4.4"} {
		bank := mustBank(t, name)
		for _, ext := range []filter.Extension{filter.Periodic, filter.Symmetric} {
			for _, sh := range [][3]int{{128, 16, 1}, {128, 64, 2}} {
				label := fmt.Sprintf("%s/%s/%dx%d@%d", name, ext, sh[0], sh[1], sh[2])
				d := wavelet.NewDecomposer(bank, ext, sh[2])
				requireForwardEquiv(t, label, image.Landsat(sh[0], sh[1], 5), bank, ext, sh[2], d)
			}
		}
	}
}

// liftingDigest is the FNV-64a digest of a pyramid's coefficient bit
// patterns: approximation rows first, then LH, HL and HH per level.
func liftingDigest(p *wavelet.Pyramid) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	write := func(im *image.Image) {
		for r := 0; r < im.Rows; r++ {
			for _, v := range im.Row(r) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	write(p.Approx)
	for _, d := range p.Levels {
		write(d.LH)
		write(d.HL)
		write(d.HH)
	}
	return h.Sum64()
}

// TestLiftingTierDigestsUnchanged pins the lifting tier (tol = the
// scheme's Eps, periodic) to digests recorded from the per-level lifting
// loop that DecomposeRanges replaced: a 64×48 Landsat scene at 3
// levels, through wavelet.DecomposeTol, a tolerance decomposer and
// ParallelDecomposeTol at 1, 2 and 3 workers. Moving the tier onto the
// shared driver must not change a bit.
func TestLiftingTierDigestsUnchanged(t *testing.T) {
	want := map[string]uint64{
		"bior2.2": 0x3fd34fe36a4dfdf7,
		"bior3.1": 0x8d846a5e5a130af2,
		"bior4.4": 0x1afb0445255058f5,
		"cdf5/3":  0xe5df22ac65980f8f,
		"db4":     0x780e2a32a76e584d,
		"db6":     0xde8486b31263bec4,
		"db8":     0x17fbea346a74c488,
		"haar":    0x77bb41f17a74137c,
		"rbio2.2": 0x69adb0e52110e67f,
		"rbio3.1": 0x6b957a88f2e82703,
		"rbio4.4": 0xa8a09e5f67bf1b8c,
		"sym2":    0x780e2a32a76e584d,
		"sym3":    0xde8486b31263bec4,
		"sym4":    0xd1526dea9722d83b,
		"sym5":    0x9b19840d07de1a0c,
		"sym6":    0xb5a49ab69742cca3,
		"sym8":    0x4695110eba74d32d,
	}
	im := image.Landsat(64, 48, 13)
	for _, name := range filter.Names() {
		bank := mustBank(t, name)
		sch := wavelet.LiftingFor(bank, filter.Periodic, 1)
		digest, pinned := want[name]
		if sch == nil {
			if pinned {
				t.Errorf("%s: lifting scheme no longer resolves", name)
			}
			continue
		}
		if !pinned {
			t.Errorf("%s: lifting tier has no pinned digest", name)
			continue
		}
		check := func(entry string, p *wavelet.Pyramid, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if got := liftingDigest(p); got != digest {
				t.Errorf("%s/%s: digest %#016x, want %#016x", name, entry, got, digest)
			}
		}
		p, err := wavelet.DecomposeTol(im, bank, filter.Periodic, 3, sch.Eps)
		check("DecomposeTol", p, err)
		p, err = wavelet.NewDecomposerTol(bank, filter.Periodic, 3, sch.Eps).Decompose(im)
		check("Decomposer", p, err)
		for _, w := range []int{1, 2, 3} {
			p, err = ParallelDecomposeTol(im, bank, filter.Periodic, 3, w, sch.Eps)
			check(fmt.Sprintf("ParallelDecomposeTol/w%d", w), p, err)
		}
	}
}

// TestParallelDecomposeAllocBytes: the worker-pool forward transform
// allocates the pyramid, at most one ring per worker, and the pool
// itself — no full-size L/H intermediate.
func TestParallelDecomposeAllocBytes(t *testing.T) {
	const n, levels, workers = 512, 5, 2
	im := image.Landsat(n, n, 42)
	bank := filter.Daubechies8()
	decompose := func() {
		if _, err := ParallelDecomposeTol(im, bank, filter.Periodic, levels, workers, 0); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	decompose()
	// The arena and rings come from sync.Pools the race detector drains
	// at random; the fewest bytes over several calls is the steady state.
	var fewest uint64 = math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		decompose()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
	}
	// The pyramid holds n²(1-4^-levels) coefficients; a ring holds 2f
	// slots of an L and an H row (n/2 samples each) at level 1.
	f := len(bank.DecLo)
	pyramid := uint64(8 * n * n)
	ring := uint64(8 * 2 * f * n)
	if limit := pyramid + workers*ring + 16<<10; fewest > limit {
		t.Errorf("ParallelDecomposeTol allocates %d bytes, want <= %d (pyramid <= %d, ring %d)", fewest, limit, pyramid, ring)
	}
}

// TestDecomposeBatchAllocBytes: a batch allocates each image's retained
// pyramid bands and a fixed handful of bookkeeping (result slice,
// channel, worker closures); arenas and rings come from the shared
// kernel pools.
func TestDecomposeBatchAllocBytes(t *testing.T) {
	const n, levels, workers, images = 256, 5, 2, 4
	batch := image.LandsatBands(n, n, images, 42)
	bank := filter.Daubechies8()
	decompose := func() {
		if _, err := DecomposeBatch(context.Background(), batch, bank, filter.Periodic, levels, workers, 0); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	decompose()
	var fewest uint64 = math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		decompose()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
	}
	// Each pyramid holds n²(1-4^-levels) coefficients.
	pyramid := uint64(8 * n * n)
	if limit := images*pyramid + 16<<10; fewest > limit {
		t.Errorf("DecomposeBatch allocates %d bytes, want <= %d (%d pyramids <= %d each)", fewest, limit, images, pyramid)
	}
}

// FuzzDecomposeEquiv draws bank, extension (an unknown value included),
// shape, depth and worker count from the input and requires every
// forward entry point at tol 0 to match wavelet.DecomposeReference by
// math.Float64bits.
func FuzzDecomposeEquiv(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(2), uint8(2), uint8(2), uint8(2))
	f.Add(uint8(2), uint8(1), uint8(15), uint8(0), uint8(0), uint8(3))
	f.Add(uint8(10), uint8(2), uint8(1), uint8(3), uint8(3), uint8(7))
	f.Add(uint8(17), uint8(3), uint8(4), uint8(5), uint8(1), uint8(64))
	names := filter.Names()
	exts := []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero, filter.Extension(99)}
	f.Fuzz(func(t *testing.T, bankIdx, extIdx, rb, cb, lb, wb uint8) {
		bank := mustBank(t, names[int(bankIdx)%len(names)])
		ext := exts[int(extIdx)%len(exts)]
		levels := 1 + int(lb%4)
		rows := (1 + int(rb%16)) << levels
		cols := (1 + int(cb%6)) << levels
		workers := 1 + int(wb%9)
		im := image.Landsat(rows, cols, uint64(rb)<<8|uint64(cb))
		label := fmt.Sprintf("%s/%s/%dx%d@%d", bank.Name, ext, rows, cols, levels)
		want, err := wavelet.DecomposeReference(im, bank, ext, levels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParallelDecomposeTol(im, bank, ext, levels, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		requirePyramidsBitIdentical(t, fmt.Sprintf("%s/ParallelDecomposeTol/w%d", label, workers), want, got)
		got, err = wavelet.Decompose(im, bank, ext, levels)
		if err != nil {
			t.Fatal(err)
		}
		requirePyramidsBitIdentical(t, label+"/Decompose", want, got)
		got, err = wavelet.NewDecomposer(bank, ext, levels).Decompose(im)
		if err != nil {
			t.Fatal(err)
		}
		requirePyramidsBitIdentical(t, label+"/Decomposer", want, got)
	})
}
