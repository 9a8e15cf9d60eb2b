package kernel_test

import (
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
