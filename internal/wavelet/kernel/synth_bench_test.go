package kernel_test

import (
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/wavelet/kernel"
)

// BenchmarkSynthesizeLevelRange times one whole-level call of the fused
// inverse sweep on the finest level of a 2048² Landsat scene (Periodic,
// a reused ring), for the banks whose row merge runs an unrolled
// interior loop in scene: haar (length 2), db8 (8) and rbio4.4 (9).
// Each output is checked Float64bits-equal to ReconstructReference of
// the one-level pyramid before anything is timed.
func BenchmarkSynthesizeLevelRange(b *testing.B) {
	const n = 2048
	im := image.Landsat(n, n, 1)
	for _, name := range []string{"haar", "db8", "rbio4.4"} {
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
			out := image.New(n, n)
			var ring kernel.Ring
			kernel.SynthesizeLevelRange(out, p.Approx, d.LH, d.HL, d.HH, bank, filter.Periodic, 0, n, &ring)
			if !image.EqualBits(out, wavelet.ReconstructReference(p)) {
				b.Fatal("SynthesizeLevelRange differs from ReconstructReference")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.SynthesizeLevelRange(out, p.Approx, d.LH, d.HL, d.HH, bank, filter.Periodic, 0, n, &ring)
			}
		})
	}
}
