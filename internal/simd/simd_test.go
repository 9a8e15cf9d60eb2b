package simd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

func randSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestSystolicConvolveMatchesDirect(t *testing.T) {
	x := randSignal(32, 1)
	for _, b := range []*filter.Bank{filter.Haar(), filter.Daubechies4(), filter.Daubechies8()} {
		acc := SystolicConvolve(x, b.DecLo)
		for i := range x {
			var want float64
			for k, hk := range b.DecLo {
				want += hk * x[(i+k)%len(x)]
			}
			if math.Abs(acc[i]-want) > 1e-12 {
				t.Fatalf("%s: acc[%d] = %g, want %g", b.Name, i, acc[i], want)
			}
		}
	}
}

func TestSystolicAnalyze1DMatchesWavelet(t *testing.T) {
	x := randSignal(64, 2)
	for _, b := range []*filter.Bank{filter.Haar(), filter.Daubechies8()} {
		sa, sd := SystolicAnalyze1D(x, b)
		wa, wd := wavelet.Analyze1D(x, b, filter.Periodic)
		if maxDiff(sa, wa) > 1e-12 || maxDiff(sd, wd) > 1e-12 {
			t.Errorf("%s: systolic != direct analysis", b.Name)
		}
	}
}

func TestShiftLeft(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	shiftLeft(a, 2)
	want := []float64{3, 4, 5, 1, 2}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("shiftLeft = %v, want %v", a, want)
		}
	}
	shiftLeft(a, 5) // full rotation is identity
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("full rotation changed contents: %v", a)
		}
	}
}

func TestRouterDecimate(t *testing.T) {
	got := RouterDecimate([]float64{0, 1, 2, 3, 4, 5})
	want := []float64{0, 2, 4}
	if maxDiff(got, want) != 0 {
		t.Errorf("RouterDecimate = %v", got)
	}
}

func TestDilutedConvolveMatchesStridedCorrelation(t *testing.T) {
	x := randSignal(32, 3)
	h := filter.Daubechies4().DecLo
	for _, stride := range []int{1, 2, 4} {
		acc := DilutedConvolve(x, h, stride)
		for i := range x {
			var want float64
			for k, hk := range h {
				want += hk * x[(i+k*stride)%len(x)]
			}
			if math.Abs(acc[i]-want) > 1e-12 {
				t.Fatalf("stride %d: acc[%d] = %g, want %g", stride, i, acc[i], want)
			}
		}
	}
}

func TestDilutedConvolvePanicsOnBadStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for stride 0")
		}
	}()
	DilutedConvolve([]float64{1}, []float64{1}, 0)
}

func TestDilutedDecompose1DMatchesMallat(t *testing.T) {
	x := randSignal(64, 4)
	for _, b := range []*filter.Bank{filter.Haar(), filter.Daubechies4(), filter.Daubechies8()} {
		for levels := 1; levels <= 3; levels++ {
			dil, err := DilutedDecompose1D(x, b, levels)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := wavelet.Decompose1D(x, b, filter.Periodic, levels)
			if err != nil {
				t.Fatal(err)
			}
			if maxDiff(dil.Approx, ref.Approx) > 1e-12 {
				t.Errorf("%s L=%d: approx mismatch", b.Name, levels)
			}
			for l := range ref.Details {
				if maxDiff(dil.Details[l], ref.Details[l]) > 1e-12 {
					t.Errorf("%s L=%d: detail level %d mismatch", b.Name, levels, l)
				}
			}
		}
	}
}

func TestDilutedDecomposeErrors(t *testing.T) {
	if _, err := DilutedDecompose1D(make([]float64, 12), filter.Haar(), 3); err == nil {
		t.Error("non-divisible length accepted")
	}
	if _, err := DilutedDecompose1D(make([]float64, 8), filter.Haar(), 0); err == nil {
		t.Error("zero levels accepted")
	}
	for _, levels := range []int{62, 63, 64, 65} {
		if _, err := DilutedDecompose1D(make([]float64, 64), filter.Haar(), levels); err == nil {
			t.Errorf("levels=%d accepted", levels)
		}
	}
}

func TestSystolicAnalyze2DMatchesWavelet(t *testing.T) {
	im := image.Landsat(32, 32, 7)
	b := filter.Daubechies8()
	sb := SystolicAnalyze2D(im, b)
	ref := wavelet.Analyze2D(im, b, filter.Periodic)
	for _, pair := range [][2]*image.Image{
		{sb.LL, ref.LL}, {sb.LH, ref.LH}, {sb.HL, ref.HL}, {sb.HH, ref.HH},
	} {
		if !image.Equal(pair[0], pair[1], 1e-12) {
			t.Fatal("systolic 2-D subband mismatch")
		}
	}
}

func TestSystolicDecomposePyramid(t *testing.T) {
	im := image.Landsat(64, 64, 8)
	p, err := SystolicDecompose(im, filter.Daubechies4(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := wavelet.Decompose(im, filter.Daubechies4(), filter.Periodic, 3)
	if !image.Equal(p.Approx, ref.Approx, 1e-10) {
		t.Error("pyramid approx mismatch")
	}
	// A systolic pyramid reconstructs the original image.
	back := wavelet.Reconstruct(p)
	if !image.Equal(im, back, 1e-8) {
		t.Error("systolic pyramid does not reconstruct")
	}
}

func TestMP2CalibrationMatchesTable1(t *testing.T) {
	want := [3]float64{0.0169, 0.0138, 0.0123}
	got := Table1MasPar()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.02*want[i] {
			t.Errorf("config %d: %g s, want %g ± 2%%", i, got[i], want[i])
		}
	}
}

func TestMasParTwoOrdersFasterThanWorkstation(t *testing.T) {
	// The paper's headline: "two orders of magnitude improvement over a
	// workstation". DEC 5000 F8/L1 was 5.47 s vs MasPar 0.0169 s.
	mas := Table1MasPar()
	ratio := 5.47 / mas[0]
	if ratio < 100 {
		t.Errorf("MasPar/workstation ratio = %.0f, want >= 100", ratio)
	}
}

func TestRealTimeRate(t *testing.T) {
	// "capable of processing 30 images or more per second"
	mas := Table1MasPar()
	for i, s := range mas {
		if rate := ImagesPerSecond(s); rate < 30 {
			t.Errorf("config %d: %.1f images/s, want >= 30", i, rate)
		}
	}
	if ImagesPerSecond(0) != 0 {
		t.Error("ImagesPerSecond(0) should be 0")
	}
}

func TestHierarchicalBeatsCutAndStack(t *testing.T) {
	// The paper: "The hierarchical gave the best results since it
	// improves data locality."
	m := MP2()
	for _, alg := range []Algorithm{Systolic, Dilution} {
		h, err := m.DecomposeTime(alg, Hierarchical, 512, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.DecomposeTime(alg, CutAndStack, 512, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if h >= c {
			t.Errorf("%v: hierarchical %g >= cut-and-stack %g", alg, h, c)
		}
	}
}

func TestDilutionAvoidsRouterCost(t *testing.T) {
	// At one level the dilution algorithm does the same shifts but skips
	// the router, so it must be faster; at deep levels its stretched
	// shifts grow as 2^level.
	m := MP2()
	sys1, _ := m.DecomposeTime(Systolic, Hierarchical, 512, 8, 1)
	dil1, _ := m.DecomposeTime(Dilution, Hierarchical, 512, 8, 1)
	if dil1 >= sys1 {
		t.Errorf("L=1: dilution %g not faster than systolic %g", dil1, sys1)
	}
	// Per-step cost comparison at deep levels.
	if m.stepCycles(Dilution, Hierarchical, 4) <= m.stepCycles(Systolic, Hierarchical, 4) {
		t.Error("dilution shift cost does not grow with level")
	}
}

func TestMP1SlowerThanMP2(t *testing.T) {
	t1, _ := MP1().DecomposeTime(Systolic, Hierarchical, 512, 8, 1)
	t2, _ := MP2().DecomposeTime(Systolic, Hierarchical, 512, 8, 1)
	if t1 <= t2*2 {
		t.Errorf("MP-1 (%g) not substantially slower than MP-2 (%g)", t1, t2)
	}
}

func TestDecomposeTimeValidation(t *testing.T) {
	m := MP2()
	if _, err := m.DecomposeTime(Systolic, Hierarchical, 0, 8, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := m.DecomposeTime(Systolic, Hierarchical, 100, 8, 3); err == nil {
		t.Error("non-divisible size accepted")
	}
	for _, levels := range []int{62, 63, 64, 65} {
		if _, err := m.DecomposeTime(Systolic, Hierarchical, 512, 8, levels); err == nil {
			t.Errorf("levels=%d accepted", levels)
		}
	}
}

func TestStringers(t *testing.T) {
	if Systolic.String() != "systolic" || Dilution.String() != "dilution" {
		t.Error("Algorithm.String wrong")
	}
	if Hierarchical.String() != "hierarchical" || CutAndStack.String() != "cut-and-stack" {
		t.Error("Virtualization.String wrong")
	}
	if MP2().PEs() != 16384 {
		t.Error("MP2 PE count wrong")
	}
}

func TestSystolicEquivalenceProperty(t *testing.T) {
	// Property: for random signals and any bank, systolic analysis equals
	// direct analysis.
	banks := []*filter.Bank{filter.Haar(), filter.Daubechies4(), filter.Daubechies6(), filter.Daubechies8()}
	f := func(seed int64, bi uint8) bool {
		b := banks[int(bi)%len(banks)]
		x := randSignal(32, seed)
		sa, sd := SystolicAnalyze1D(x, b)
		wa, wd := wavelet.Analyze1D(x, b, filter.Periodic)
		return maxDiff(sa, wa) < 1e-10 && maxDiff(sd, wd) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDilutedDecompose2DMatchesMallat(t *testing.T) {
	im := image.Landsat(64, 64, 12)
	for _, b := range []*filter.Bank{filter.Haar(), filter.Daubechies4(), filter.Daubechies8()} {
		for levels := 1; levels <= 3; levels++ {
			dil, err := DilutedDecompose2D(im, b, levels)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := wavelet.Decompose(im, b, filter.Periodic, levels)
			if err != nil {
				t.Fatal(err)
			}
			if !image.Equal(dil.Approx, ref.Approx, 1e-10) {
				t.Errorf("%s L=%d: approx mismatch", b.Name, levels)
			}
			for l := range ref.Levels {
				if !image.Equal(dil.Levels[l].LH, ref.Levels[l].LH, 1e-10) ||
					!image.Equal(dil.Levels[l].HL, ref.Levels[l].HL, 1e-10) ||
					!image.Equal(dil.Levels[l].HH, ref.Levels[l].HH, 1e-10) {
					t.Errorf("%s L=%d: detail level %d mismatch", b.Name, levels, l)
				}
			}
		}
	}
}

func TestDilutedDecompose2DReconstructs(t *testing.T) {
	im := image.Landsat(32, 32, 13)
	p, err := DilutedDecompose2D(im, filter.Daubechies8(), 2)
	if err != nil {
		t.Fatal(err)
	}
	back := wavelet.Reconstruct(p)
	if !image.Equal(im, back, 1e-8) {
		t.Error("dilution pyramid does not reconstruct the image")
	}
}

func TestDilutedDecompose2DValidation(t *testing.T) {
	if _, err := DilutedDecompose2D(image.New(32, 64), filter.Haar(), 1); err == nil {
		t.Error("non-square image accepted")
	}
	if _, err := DilutedDecompose2D(image.New(30, 30), filter.Haar(), 2); err == nil {
		t.Error("non-divisible image accepted")
	}
}

func TestSystolicConvolveRightMatchesDirect(t *testing.T) {
	x := randSignal(32, 21)
	h := filter.Daubechies8().DecLo
	acc := SystolicConvolveRight(x, h)
	for i := range x {
		var want float64
		for k, hk := range h {
			want += hk * x[((i-k)%32+32)%32]
		}
		if math.Abs(acc[i]-want) > 1e-12 {
			t.Fatalf("acc[%d] = %g, want %g", i, acc[i], want)
		}
	}
}

func TestSystolicSynthesize1DMatchesWavelet(t *testing.T) {
	x := randSignal(64, 22)
	for _, b := range []*filter.Bank{filter.Haar(), filter.Daubechies4(), filter.Daubechies8()} {
		a, d := wavelet.Analyze1D(x, b, filter.Periodic)
		got := SystolicSynthesize1D(a, d, b)
		want := wavelet.Synthesize1D(a, d, b, filter.Periodic)
		if maxDiff(got, want) > 1e-10 {
			t.Errorf("%s: systolic synthesis diverges by %g", b.Name, maxDiff(got, want))
		}
		if maxDiff(got, x) > 1e-9 {
			t.Errorf("%s: systolic synthesis does not invert analysis", b.Name)
		}
	}
}

func TestSystolicReconstructFullPyramid(t *testing.T) {
	im := image.Landsat(64, 64, 23)
	for _, levels := range []int{1, 3} {
		p, err := SystolicDecompose(im, filter.Daubechies8(), levels)
		if err != nil {
			t.Fatal(err)
		}
		back := SystolicReconstruct(p)
		if !image.Equal(im, back, 1e-8) {
			t.Errorf("L=%d: systolic round trip failed", levels)
		}
	}
}

func TestShiftRight(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	shiftRight(a, 1)
	want := []float64{4, 1, 2, 3}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("shiftRight = %v", a)
		}
	}
}

func TestDiluteReExport(t *testing.T) {
	got := Dilute([]float64{1, 2}, 3)
	want := []float64{1, 0, 0, 2}
	if len(got) != 4 || got[0] != want[0] || got[3] != want[3] {
		t.Errorf("Dilute = %v", got)
	}
}
