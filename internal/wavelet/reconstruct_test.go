package wavelet

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// Inverse equivalence suite: the fused synthesis driver behind
// Reconstruct (and core.ParallelReconstruct) must rebuild every pyramid
// bit for bit as ReconstructReference does, for every catalog bank ×
// extension × shape, including deepest levels shorter than the filter
// and thresholded pyramids holding exact ±0 coefficients.

// reconShapes are rows, cols, levels: square, non-square both ways, and
// deep enough that the coarsest bands are shorter than the longer
// catalog filters (16×48 at 3 levels leaves a 2×6 approximation).
var reconShapes = [][3]int{{32, 32, 2}, {16, 48, 3}, {40, 8, 2}, {8, 8, 3}}

// signedZeros thresholds the pyramid so most detail coefficients become
// exact +0, then flips every other zeroed coefficient — and a stripe of
// the approximation — to -0. The reference synthesis skips zero
// coefficients while the panel kernels add h·(±0); the suite pins that
// the difference cannot change a bit.
func signedZeros(p *Pyramid) *Pyramid {
	p = p.Clone()
	p.Threshold(p.Energy() / 64)
	neg := math.Copysign(0, -1)
	flip := func(b *image.Image) {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			for c := range row {
				if row[c] == 0 && (r+c)%2 == 0 {
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

// strided moves every band of a copy of p into a view of a wider image,
// so no band has a tight stride.
func strided(p *Pyramid) *Pyramid {
	p = p.Clone()
	view := func(b *image.Image) *image.Image {
		v := image.New(b.Rows, b.Cols+3).Sub(0, 1, b.Rows, b.Cols)
		blit(v, b)
		return v
	}
	p.Approx = view(p.Approx)
	for i, d := range p.Levels {
		p.Levels[i] = DetailBands{LH: view(d.LH), HL: view(d.HL), HH: view(d.HH)}
	}
	return p
}

// reconCases calls fn with a labelled pyramid for every catalog bank ×
// extension × reconShapes entry, each as decomposed, with signed zeros,
// and with strided bands.
func reconCases(t *testing.T, fn func(label string, p *Pyramid)) {
	t.Helper()
	for _, name := range filter.Names() {
		bank, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range allExtensions() {
			for _, sh := range reconShapes {
				p, err := Decompose(image.Landsat(sh[0], sh[1], 5), bank, ext, sh[2])
				if err != nil {
					t.Fatal(err)
				}
				label := name + "/" + ext.String()
				fn(label, p)
				fn(label+"/signed-zeros", signedZeros(p))
				fn(label+"/strided", strided(p))
			}
		}
	}
}

// goRanges is a RangeRunner that runs k chunks on their own goroutines,
// standing in for the core worker pool.
func goRanges(k int) RangeRunner {
	return func(n int, fn func(lo, hi int)) {
		chunk := (n + k - 1) / k
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			wg.Add(1)
			go func(lo int) {
				defer wg.Done()
				fn(lo, min(lo+chunk, n))
			}(lo)
		}
		wg.Wait()
	}
}

// reversed is a RangeRunner that splits [0, n) into chunks as goRanges
// does and runs them one after another, the last chunk first.
func reversed(k int) RangeRunner {
	return func(n int, fn func(lo, hi int)) {
		if n <= 0 {
			return
		}
		chunk := (n + k - 1) / k
		for lo := (n - 1) / chunk * chunk; lo >= 0; lo -= chunk {
			fn(lo, min(lo+chunk, n))
		}
	}
}

// TestReconstructRangesIndependent runs the level driver under a runner
// that takes its chunks last first and under one that gives every chunk
// its own goroutine, at 0-5 levels for every catalog bank and extension,
// as decomposed and with signed zeros. With two or more chunks the
// first call's ranges, the output allocation and the coarse levels, run
// in reverse order or side by side, so neither may depend on the other;
// every result must match ReconstructReference bit for bit.
func TestReconstructRangesIndependent(t *testing.T) {
	im := image.Landsat(64, 96, 7)
	for _, name := range filter.Names() {
		bank, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range allExtensions() {
			for levels := 0; levels <= 5; levels++ {
				p := &Pyramid{Approx: im, Bank: bank, Ext: ext}
				if levels > 0 {
					if p, err = Decompose(im, bank, ext, levels); err != nil {
						t.Fatal(err)
					}
				}
				for zi, q := range []*Pyramid{p, signedZeros(p)} {
					want := ReconstructReference(q)
					for _, k := range []int{2, 3, 1 << 10} {
						label := fmt.Sprintf("%s/%s/L%d/zeros%d/k%d", name, ext, levels, zi, k)
						requireBitIdentical(t, label+"/reversed", want, ReconstructRanges(q, reversed(k)))
						requireBitIdentical(t, label+"/goroutines", want, ReconstructRanges(q, goRanges(k)))
					}
				}
			}
		}
	}
}

func TestReconstructBitIdenticalToReference(t *testing.T) {
	reconCases(t, func(label string, p *Pyramid) {
		want := ReconstructReference(p)
		requireBitIdentical(t, label, want, Reconstruct(p))
		for _, k := range []int{2, 3, 1 << 10} {
			requireBitIdentical(t, label+"/ranges", want, ReconstructRanges(p, goRanges(k)))
		}
	})
}

// TestReconstructUnknownExtension: the synthesis kernels resolve every
// border through ext.Index, so an extension value outside the known set
// reconstructs exactly as the reference does (out-of-range taps
// skipped) rather than needing a fallback.
func TestReconstructUnknownExtension(t *testing.T) {
	p, err := Decompose(image.Landsat(16, 16, 3), filter.Daubechies4(), filter.Extension(99), 2)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "unknown-ext", ReconstructReference(p), Reconstruct(p))
}

func TestReconstructZeroLevels(t *testing.T) {
	p := &Pyramid{Approx: image.Landsat(4, 4, 1), Bank: filter.Haar(), Ext: filter.Periodic}
	if Reconstruct(p) != p.Approx {
		t.Error("a zero-level pyramid must reconstruct to its approximation")
	}
}

// requireUsagePanic runs fn and fails unless it panics with a
// *UsageError naming op.
func requireUsagePanic(t *testing.T, label, op string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		ue, ok := recover().(*UsageError)
		if !ok {
			t.Fatalf("%s: want a *UsageError panic", label)
		}
		if ue.Op != op {
			t.Errorf("%s: Op = %q, want %q", label, ue.Op, op)
		}
	}()
	fn()
}

func TestCheckReconstructableRejectsBrokenChains(t *testing.T) {
	fresh := func() *Pyramid {
		p, err := Decompose(image.Landsat(32, 32, 2), filter.Daubechies4(), filter.Periodic, 3)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]func(p *Pyramid){
		"finest LH too narrow": func(p *Pyramid) { p.Levels[2].LH = image.New(16, 15) },
		"coarsest HH too tall": func(p *Pyramid) { p.Levels[0].HH = image.New(5, 4) },
		"levels do not double": func(p *Pyramid) { p.Levels[1] = p.Levels[0] },
		"missing HL":           func(p *Pyramid) { p.Levels[1].HL = nil },
		"missing approx":       func(p *Pyramid) { p.Approx = nil },
	}
	for label, breakIt := range cases {
		p := fresh()
		breakIt(p)
		requireUsagePanic(t, label, "Reconstruct", func() { CheckReconstructable(p) })
		requireUsagePanic(t, label, "Reconstruct", func() { Reconstruct(p) })
		requireUsagePanic(t, label, "Reconstruct", func() { ReconstructRanges(p, goRanges(2)) })
	}
	CheckReconstructable(fresh())
}

// steadyAllocs returns the fewest allocations and bytes fn made over
// tries single calls, with the collector paused. Reconstruct takes its
// arena from a sync.Pool, which a GC cycle empties (and re-pins with
// allocations of its own) and which the race detector drains at
// random; the minimum is the steady state those losses hide.
func steadyAllocs(tries int, fn func()) (count float64, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count, bytes = math.Inf(1), math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < tries; i++ {
		count = math.Min(count, testing.AllocsPerRun(1, fn))
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return count, bytes
}

// TestReconstructAllocs is the inverse's allocation gate: a warm 512²
// Reconstruct allocates its output image and the driver's level state —
// no full-size L/H intermediates, no per-level parents, no row scratch
// (the sweep's scratch lives in the pooled arena).
func TestReconstructAllocs(t *testing.T) {
	const n, levels = 512, 5
	p, err := Decompose(image.Landsat(n, n, 42), filter.Daubechies8(), filter.Periodic, levels)
	if err != nil {
		t.Fatal(err)
	}
	count, bytes := steadyAllocs(10, func() { Reconstruct(p) })
	// The output image (header and pixels), the driver's level state and
	// its range body.
	if maxCount := float64(4); count > maxCount {
		t.Errorf("warm Reconstruct makes %.0f allocations, want <= %.0f", count, maxCount)
	}
	// 1 KiB covers the headers and the level state (128 bytes measured).
	if limit := uint64(8*n*n + 1024); bytes > limit {
		t.Errorf("warm Reconstruct allocates %d bytes, want <= %d (output %d)", bytes, limit, 8*n*n)
	}
}
