package kernel_test

import (
	"fmt"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/wavelet/kernel"
)

// BenchmarkAnalyzeLevelRange times one whole-level call of the fused
// forward sweep on a 2048² Landsat scene (Periodic, a reused ring), for
// the convolution banks of scene: haar (length 2) and db8 (8). The four
// subbands are checked Float64bits-equal to DecomposeReference's one
// level before anything is timed.
func BenchmarkAnalyzeLevelRange(b *testing.B) {
	const n = 2048
	im := image.Landsat(n, n, 1)
	for _, name := range []string{"haar", "db8"} {
		b.Run(name, func(b *testing.B) {
			bank, err := filter.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p, err := wavelet.DecomposeReference(im, bank, filter.Periodic, 1)
			if err != nil {
				b.Fatal(err)
			}
			d := p.Levels[0]
			var got [4]*image.Image
			for k := range got {
				got[k] = image.New(n/2, n/2)
			}
			var ring kernel.Ring
			kernel.AnalyzeLevelRange(got[0], got[1], got[2], got[3], im, bank, filter.Periodic, 0, n/2, &ring)
			for k, want := range []*image.Image{p.Approx, d.LH, d.HL, d.HH} {
				if !image.EqualBits(got[k], want) {
					b.Fatalf("band %d differs from DecomposeReference", k)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.AnalyzeLevelRange(got[0], got[1], got[2], got[3], im, bank, filter.Periodic, 0, n/2, &ring)
			}
		})
	}
}

// BenchmarkLiftLevelRange times one whole-level call of the fused
// lifting sweep on a Landsat scene (a reused ring), for scene's lifted
// bank rbio4.4 and for cdf5/3: on a 2048² level, and on 32-row levels
// of 12- and 24-sample-pair rows, one on each side of the vector
// routine's width floor (liftVecMin, 16 pairs) on amd64. The four
// subbands are checked Float64bits-equal to the two-pass kernels
// (LiftRowsRange, then LiftColsRange on both subband pairs) before
// anything is timed.
func BenchmarkLiftLevelRange(b *testing.B) {
	for _, name := range []string{"rbio4.4", "cdf5/3"} {
		for _, sh := range [][2]int{{2048, 2048}, {32, 24}, {32, 48}} {
			rows, cols := sh[0], sh[1]
			b.Run(fmt.Sprintf("%s/%dx%d", name, rows, cols), func(b *testing.B) {
				bank, err := filter.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				sch, err := kernel.LiftingScheme(bank)
				if err != nil {
					b.Fatal(err)
				}
				im := image.Landsat(rows, cols, 1)
				var want, got [4]*image.Image
				for k := range got {
					want[k] = image.New(rows/2, cols/2)
					got[k] = image.New(rows/2, cols/2)
				}
				kernel.LiftRowsRange(want[0], want[1], want[2], want[3], im, sch, 0, rows)
				kernel.LiftColsRange(want[0], want[1], sch, 0, cols/2)
				kernel.LiftColsRange(want[2], want[3], sch, 0, cols/2)
				var ring kernel.Ring
				kernel.LiftLevelRange(got[0], got[1], got[2], got[3], im, sch, 0, rows/2, &ring)
				for k := range got {
					if !image.EqualBits(got[k], want[k]) {
						b.Fatalf("band %d differs from the two-pass kernels", k)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernel.LiftLevelRange(got[0], got[1], got[2], got[3], im, sch, 0, rows/2, &ring)
				}
			})
		}
	}
}
