package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

func banks() []*filter.Bank {
	// The historical orthonormal quartet plus representatives of every
	// new family: a symlet, the spline biorthogonals, the JPEG-2000
	// pair, and a reversed biorthogonal. Every suite iterating banks()
	// therefore exercises analysis≠synthesis and mixed channel lengths.
	return []*filter.Bank{
		filter.Haar(), filter.Daubechies4(), filter.Daubechies6(), filter.Daubechies8(),
		filter.Symlet(5), filter.Symlet(8),
		filter.Bior22(), filter.Bior44(), filter.CDF53(), filter.Rbio44(),
	}
}

func randSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 10
	}
	return x
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestAnalyzeStepHaarAverages(t *testing.T) {
	x := []float64{1, 3, 5, 7}
	b := filter.Haar()
	a := AnalyzeStep(x, b.DecLo, filter.Periodic, nil)
	s := 1 / math.Sqrt2
	want := []float64{s * 4, s * 12}
	if maxAbsDiff(a, want) > 1e-12 {
		t.Errorf("haar approx = %v, want %v", a, want)
	}
	d := AnalyzeStep(x, b.DecHi, filter.Periodic, nil)
	wantD := []float64{s * -2, s * -2}
	if maxAbsDiff(d, wantD) > 1e-12 {
		t.Errorf("haar detail = %v, want %v", d, wantD)
	}
}

func TestAnalyzeStepPanicsOnOddLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on odd-length input")
		}
	}()
	AnalyzeStep(make([]float64, 3), filter.Haar().DecLo, filter.Periodic, nil)
}

func TestAnalyzeStepReusesDst(t *testing.T) {
	x := randSignal(16, 1)
	dst := make([]float64, 8)
	got := AnalyzeStep(x, filter.Haar().DecLo, filter.Periodic, dst)
	if &got[0] != &dst[0] {
		t.Error("AnalyzeStep did not reuse dst")
	}
}

func TestPerfectReconstruction1DOneLevel(t *testing.T) {
	for _, b := range banks() {
		for _, n := range []int{8, 16, 64, 128} {
			x := randSignal(n, int64(n))
			a, d := Analyze1D(x, b, filter.Periodic)
			if len(a) != n/2 || len(d) != n/2 {
				t.Fatalf("%s n=%d: subband lengths %d/%d", b.Name, n, len(a), len(d))
			}
			y := Synthesize1D(a, d, b, filter.Periodic)
			if diff := maxAbsDiff(x, y); diff > 1e-9 {
				t.Errorf("%s n=%d: reconstruction error %g", b.Name, n, diff)
			}
		}
	}
}

func TestPerfectReconstruction1DMultiLevel(t *testing.T) {
	for _, b := range banks() {
		x := randSignal(256, 7)
		for levels := 1; levels <= 5; levels++ {
			dec, err := Decompose1D(x, b, filter.Periodic, levels)
			if err != nil {
				t.Fatalf("%s L=%d: %v", b.Name, levels, err)
			}
			if len(dec.Approx) != 256>>uint(levels) {
				t.Fatalf("%s L=%d: approx len %d", b.Name, levels, len(dec.Approx))
			}
			y := Reconstruct1D(dec)
			if diff := maxAbsDiff(x, y); diff > 1e-9 {
				t.Errorf("%s L=%d: reconstruction error %g", b.Name, levels, diff)
			}
		}
	}
}

func TestDecompose1DErrors(t *testing.T) {
	x := randSignal(12, 1)
	if _, err := Decompose1D(x, filter.Haar(), filter.Periodic, 0); err == nil {
		t.Error("levels=0 accepted")
	}
	if _, err := Decompose1D(x, filter.Haar(), filter.Periodic, 3); err == nil {
		t.Error("12 %% 8 != 0 accepted")
	}
	// 1<<levels wraps at the word size; the check must refuse, not
	// divide by it.
	for _, levels := range []int{62, 63, 64, 65} {
		if _, err := Decompose1D(make([]float64, 64), filter.Haar(), filter.Periodic, levels); err == nil {
			t.Errorf("levels=%d accepted", levels)
		}
	}
}

func TestParseval1D(t *testing.T) {
	// Orthonormal transform preserves energy. (Biorthogonal banks are
	// not isometries, so only the orthonormal subset applies.)
	for _, b := range banks() {
		if !b.Orthonormal() {
			continue
		}
		x := randSignal(128, 3)
		var ex float64
		for _, v := range x {
			ex += v * v
		}
		dec, err := Decompose1D(x, b, filter.Periodic, 4)
		if err != nil {
			t.Fatal(err)
		}
		var ec float64
		for _, v := range dec.Approx {
			ec += v * v
		}
		for _, det := range dec.Details {
			for _, v := range det {
				ec += v * v
			}
		}
		if math.Abs(ex-ec) > 1e-6*ex {
			t.Errorf("%s: energy %g -> %g", b.Name, ex, ec)
		}
	}
}

func TestConstantSignalDetailVanishes(t *testing.T) {
	// Every registered high-pass has a zero at DC, so a constant signal
	// has vanishing detail; the approx is the constant scaled by the
	// low-pass DC gain (√2 for the orthonormal banks, bank-specific for
	// the biorthogonal normalizations).
	for _, b := range banks() {
		var gain float64
		for _, w := range b.DecLo {
			gain += w
		}
		x := make([]float64, 32)
		for i := range x {
			x[i] = 5
		}
		a, d := Analyze1D(x, b, filter.Periodic)
		for i := range d {
			if math.Abs(d[i]) > 1e-12 {
				t.Errorf("%s: detail[%d] = %g on constant input", b.Name, i, d[i])
			}
			if math.Abs(a[i]-5*gain) > 1e-12 {
				t.Errorf("%s: approx[%d] = %g, want %g", b.Name, i, a[i], 5*gain)
			}
		}
	}
}

func TestPerfectReconstruction2D(t *testing.T) {
	for _, b := range banks() {
		im := image.Landsat(32, 64, 11)
		sb := Analyze2D(im, b, filter.Periodic)
		if sb.LL.Rows != 16 || sb.LL.Cols != 32 {
			t.Fatalf("%s: LL shape %dx%d", b.Name, sb.LL.Rows, sb.LL.Cols)
		}
		back := Synthesize2D(sb, b, filter.Periodic)
		if !image.Equal(im, back, 1e-8) {
			t.Errorf("%s: 2-D reconstruction mismatch", b.Name)
		}
	}
}

func TestPyramidRoundTripAllPaperConfigs(t *testing.T) {
	// The paper's three configurations: F8/L1, F4/L2, F2/L4.
	im := image.Landsat(64, 64, 5)
	configs := []struct {
		bank   *filter.Bank
		levels int
	}{
		{filter.Daubechies8(), 1},
		{filter.Daubechies4(), 2},
		{filter.Haar(), 4},
	}
	for _, cfg := range configs {
		p, err := Decompose(im, cfg.bank, filter.Periodic, cfg.levels)
		if err != nil {
			t.Fatalf("%s/L%d: %v", cfg.bank.Name, cfg.levels, err)
		}
		if p.Depth() != cfg.levels {
			t.Fatalf("depth = %d", p.Depth())
		}
		back := Reconstruct(p)
		if !image.Equal(im, back, 1e-8) {
			t.Errorf("%s/L%d: reconstruction mismatch", cfg.bank.Name, cfg.levels)
		}
	}
}

func TestPyramidShapes(t *testing.T) {
	im := image.Landsat(64, 32, 1)
	p, err := Decompose(im, filter.Haar(), filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Approx.Rows != 8 || p.Approx.Cols != 4 {
		t.Errorf("approx %dx%d, want 8x4", p.Approx.Rows, p.Approx.Cols)
	}
	// Levels are coarsest-first.
	wantRows := []int{8, 16, 32}
	for i, d := range p.Levels {
		if d.LH.Rows != wantRows[i] {
			t.Errorf("level %d LH rows = %d, want %d", i, d.LH.Rows, wantRows[i])
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	im := image.New(48, 64)
	if _, err := Decompose(im, filter.Haar(), filter.Periodic, 5); err == nil {
		t.Error("48 not divisible by 32 accepted")
	}
	if _, err := Decompose(im, filter.Haar(), filter.Periodic, 0); err == nil {
		t.Error("levels=0 accepted")
	}
	// 1<<levels wraps to 0 or a negative at the word size; the check
	// must report the image not divisible, not divide by it.
	for _, levels := range []int{62, 63, 64, 65, 1000} {
		if err := CheckDecomposable(48, 64, levels); err == nil {
			t.Errorf("CheckDecomposable(48, 64, %d) accepted", levels)
		}
		if _, err := Decompose(im, filter.Haar(), filter.Periodic, levels); err == nil {
			t.Errorf("levels=%d accepted", levels)
		}
	}
}

func TestParseval2D(t *testing.T) {
	im := image.Landsat(64, 64, 9)
	p, err := Decompose(im, filter.Daubechies8(), filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e1, e2 := im.Energy(), p.Energy(); math.Abs(e1-e2) > 1e-6*e1 {
		t.Errorf("energy %g -> %g", e1, e2)
	}
}

func TestEnergyCompactionOnTerrain(t *testing.T) {
	// Terrain-like imagery concentrates energy in the approximation band;
	// a 3-level D8 decomposition should put the large majority of energy
	// into 1/64 of the coefficients.
	im := image.Landsat(128, 128, 20)
	p, err := Decompose(im, filter.Daubechies8(), filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	frac := p.Approx.Energy() / p.Energy()
	if frac < 0.9 {
		t.Errorf("approx band holds only %.1f%% of energy", frac*100)
	}
}

func TestMosaicLayout(t *testing.T) {
	im := image.Landsat(32, 32, 2)
	p, err := Decompose(im, filter.Haar(), filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Mosaic()
	if m.Rows != 32 || m.Cols != 32 {
		t.Fatalf("mosaic %dx%d", m.Rows, m.Cols)
	}
	// Top-left pixel of mosaic equals top-left of approximation.
	if m.At(0, 0) != p.Approx.At(0, 0) {
		t.Error("mosaic top-left != approx top-left")
	}
	// HH of finest level lands in the bottom-right quadrant.
	fin := p.Levels[len(p.Levels)-1]
	if m.At(16, 16) != fin.HH.At(0, 0) {
		t.Error("mosaic bottom-right quadrant != finest HH")
	}
}

func TestThreshold(t *testing.T) {
	im := image.Landsat(64, 64, 8)
	p, err := Decompose(im, filter.Daubechies4(), filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	kept, total := p.Threshold(1e18) // zero everything
	if kept != 0 {
		t.Errorf("kept %d detail coeffs after infinite threshold", kept)
	}
	wantTotal := 3 * (32*32 + 16*16)
	if total != wantTotal {
		t.Errorf("total = %d, want %d", total, wantTotal)
	}
	// Reconstruction from approx only still resembles the input (low-pass).
	back := Reconstruct(p)
	if psnr := image.PSNR(im, back); psnr < 20 {
		t.Errorf("approx-only PSNR = %.1f dB, want >= 20", psnr)
	}
}

func TestThresholdZeroKeepsNonzeros(t *testing.T) {
	im := image.Landsat(32, 32, 8)
	p, _ := Decompose(im, filter.Haar(), filter.Periodic, 1)
	before := p.Energy()
	kept, total := p.Threshold(0)
	if kept == 0 || kept > total {
		t.Errorf("kept=%d total=%d", kept, total)
	}
	if math.Abs(p.Energy()-before) > 1e-9 {
		t.Error("Threshold(0) changed energy")
	}
}

func TestMACCounts(t *testing.T) {
	if got := AnalyzeMACs(512, 8); got != 2048 {
		t.Errorf("AnalyzeMACs(512,8) = %d, want 2048", got)
	}
	// One level on 512x512 with f taps: rows 2*512*(256f) + cols 2*2*256*(256f).
	f := 8
	want := 2*512*256*f + 4*256*256*f
	if got := Level2DMACs(512, 512, f); got != want {
		t.Errorf("Level2DMACs = %d, want %d", got, want)
	}
	// Multi-level sums shrink 4x per level.
	l1 := DecomposeMACs(512, 512, 2, 1)
	l2 := DecomposeMACs(512, 512, 2, 2)
	if l2 <= l1 || l2-l1 != DecomposeMACs(256, 256, 2, 1) {
		t.Errorf("DecomposeMACs inconsistent: L1=%d L2=%d", l1, l2)
	}
}

func TestSynthesizeStepPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad output length")
		}
	}()
	SynthesizeStep(make([]float64, 4), filter.Haar().DecLo, filter.Periodic, make([]float64, 7))
}

func TestRoundTripPropertyQuick(t *testing.T) {
	// Property: decompose∘reconstruct is identity for random signals,
	// any bank, any valid level count.
	f := func(seed int64, bankIdx uint8, levelRaw uint8) bool {
		b := banks()[int(bankIdx)%len(banks())]
		levels := int(levelRaw)%4 + 1
		x := randSignal(64, seed)
		dec, err := Decompose1D(x, b, filter.Periodic, levels)
		if err != nil {
			return false
		}
		return maxAbsDiff(x, Reconstruct1D(dec)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	// DWT is linear: T(ax + by) = aT(x) + bT(y).
	b := filter.Daubechies4()
	x := randSignal(32, 1)
	y := randSignal(32, 2)
	sum := make([]float64, 32)
	for i := range sum {
		sum[i] = 2*x[i] + 3*y[i]
	}
	ax, dx := Analyze1D(x, b, filter.Periodic)
	ay, dy := Analyze1D(y, b, filter.Periodic)
	as, ds := Analyze1D(sum, b, filter.Periodic)
	for i := range as {
		if math.Abs(as[i]-(2*ax[i]+3*ay[i])) > 1e-9 {
			t.Fatalf("approx nonlinearity at %d", i)
		}
		if math.Abs(ds[i]-(2*dx[i]+3*dy[i])) > 1e-9 {
			t.Fatalf("detail nonlinearity at %d", i)
		}
	}
}

func TestShiftBy2Covariance(t *testing.T) {
	// A circular shift of the input by 2 shifts level-1 coefficients by 1.
	b := filter.Daubechies8()
	x := randSignal(64, 4)
	shifted := make([]float64, 64)
	for i := range x {
		shifted[(i+2)%64] = x[i]
	}
	a1, d1 := Analyze1D(x, b, filter.Periodic)
	a2, d2 := Analyze1D(shifted, b, filter.Periodic)
	for i := range a1 {
		j := (i + 1) % 32
		if math.Abs(a2[j]-a1[i]) > 1e-9 || math.Abs(d2[j]-d1[i]) > 1e-9 {
			t.Fatalf("shift covariance broken at %d", i)
		}
	}
}

func TestSymmetricAndZeroExtensionsRun(t *testing.T) {
	// Non-periodic extensions won't perfectly reconstruct with orthonormal
	// banks, but they must run and keep interior coefficients identical.
	x := randSignal(64, 6)
	b := filter.Daubechies8()
	ap, _ := Analyze1D(x, b, filter.Periodic)
	as, _ := Analyze1D(x, b, filter.Symmetric)
	az, _ := Analyze1D(x, b, filter.Zero)
	// Interior outputs (filter support fully inside) agree across
	// extensions.
	for i := 0; i < (64-8)/2; i++ {
		if ap[i] != as[i] || ap[i] != az[i] {
			t.Fatalf("interior coefficient %d differs across extensions", i)
		}
	}
}

func TestPadToDecomposable(t *testing.T) {
	im := image.Landsat(50, 70, 3)
	padded, r0, c0 := PadToDecomposable(im, 3)
	if r0 != 50 || c0 != 70 {
		t.Errorf("orig size %dx%d", r0, c0)
	}
	if padded.Rows != 56 || padded.Cols != 72 {
		t.Fatalf("padded to %dx%d, want 56x72", padded.Rows, padded.Cols)
	}
	// Interior preserved.
	if !image.Equal(padded.Sub(0, 0, 50, 70), im, 0) {
		t.Error("padding altered original pixels")
	}
	// Border is a reflection, not zeros.
	if padded.At(50, 0) != im.At(49, 0) {
		t.Errorf("reflective pad wrong: %g vs %g", padded.At(50, 0), im.At(49, 0))
	}
	// Already-decomposable images pass through unchanged.
	sq := image.Landsat(64, 64, 1)
	same, _, _ := PadToDecomposable(sq, 3)
	if same != sq {
		t.Error("decomposable image was copied")
	}
}

// TestPadToDecomposableRefusesLevels: levels with no int 2^levels, or
// whose padding would make a side longer than the image side cap, are a
// *UsageError panic, not a division by zero or a 2^levels-row
// allocation: 17 levels would pad a 50×70 raster to 131072×131072.
func TestPadToDecomposableRefusesLevels(t *testing.T) {
	im := image.Landsat(50, 70, 3)
	for _, levels := range []int{-1, 17, 40, 63, 64, 1000} {
		requireUsagePanic(t, fmt.Sprintf("levels %d", levels), "PadToDecomposable", func() { PadToDecomposable(im, levels) })
	}
	// 7 levels pad 50×70 to 128×128, inside the cap.
	if padded, _, _ := PadToDecomposable(im, 7); padded.Rows != 128 || padded.Cols != 128 {
		t.Errorf("7 levels padded to %dx%d, want 128x128", padded.Rows, padded.Cols)
	}
	if same, _, _ := PadToDecomposable(im, 0); same != im {
		t.Error("0 levels copied the image")
	}
	// A padded image may hold more pixels than a PGM header may declare;
	// only its sides are capped. 9 levels pad 1×32769 to 512×33280,
	// 17 039 360 pixels, over the 2^24 a PGM may have.
	wide := image.New(1, 32769)
	if padded, _, _ := PadToDecomposable(wide, 9); padded.Rows != 512 || padded.Cols != 33280 {
		t.Errorf("9 levels padded 1x32769 to %dx%d, want 512x33280", padded.Rows, padded.Cols)
	}
}

func TestPadDecomposeCropRoundTrip(t *testing.T) {
	im := image.Landsat(50, 70, 4)
	padded, r0, c0 := PadToDecomposable(im, 2)
	p, err := Decompose(padded, filter.Daubechies4(), filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	back := Crop(Reconstruct(p), r0, c0)
	if !image.Equal(im, back, 1e-8) {
		t.Error("pad/decompose/reconstruct/crop round trip failed")
	}
}

func TestDecomposition1DLevels(t *testing.T) {
	x := randSignal(32, 40)
	dec, err := Decompose1D(x, filter.Haar(), filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Levels() != 3 {
		t.Errorf("Levels() = %d", dec.Levels())
	}
}
