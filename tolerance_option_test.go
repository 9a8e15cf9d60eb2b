package wavelethpc

import (
	"errors"
	"math"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// Facade surface of the lifting tier: WithTolerance validation, routing
// through both the sequential and parallel paths, and the guarantee
// that tolerance 0 (or omitted) keeps the bit-identical default.

func facadeBitIdentical(t *testing.T, label string, a, b *Pyramid) {
	t.Helper()
	check := func(band string, x, y *image.Image) {
		for r := 0; r < x.Rows; r++ {
			rx, ry := x.Row(r), y.Row(r)
			for c := range rx {
				if math.Float64bits(rx[c]) != math.Float64bits(ry[c]) {
					t.Fatalf("%s/%s (%d,%d): %g vs %g", label, band, r, c, rx[c], ry[c])
				}
			}
		}
	}
	check("approx", a.Approx, b.Approx)
	for i := range a.Levels {
		check("LH", a.Levels[i].LH, b.Levels[i].LH)
		check("HL", a.Levels[i].HL, b.Levels[i].HL)
		check("HH", a.Levels[i].HH, b.Levels[i].HH)
	}
}

func TestWithToleranceValidation(t *testing.T) {
	im := image.Landsat(16, 16, 1)
	for _, eps := range []float64{-1, -1e-12, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := DecomposeWith(im, Daubechies8(), WithTolerance(eps))
		var ue *wavelet.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("WithTolerance(%v): err = %v, want wrapped *wavelet.UsageError", eps, err)
		}
	}
}

// TestWithToleranceZeroBitIdentical: WithTolerance(0) and an omitted
// tolerance must land on the same bit patterns as the plain default —
// the presence of the lifting tier cannot change the default path.
func TestWithToleranceZeroBitIdentical(t *testing.T) {
	im := image.Landsat(64, 32, 7)
	def, err := DecomposeWith(im, Daubechies8(), WithLevels(3))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := DecomposeWith(im, Daubechies8(), WithLevels(3), WithTolerance(0))
	if err != nil {
		t.Fatal(err)
	}
	facadeBitIdentical(t, "tol0", def, zero)
}

// TestWithToleranceDriftBounded: the opted-in tier stays within eps of
// the default on the sequential, parallel, and batch paths, and the
// parallel lifted output is bit-identical to the sequential lifted one.
func TestWithToleranceDriftBounded(t *testing.T) {
	sch := wavelet.LiftingFor(filter.Daubechies8(), filter.Periodic, 1)
	if sch == nil {
		t.Fatal("db8/periodic should admit lifting")
	}
	eps := sch.Eps
	im := image.Landsat(64, 64, 5)
	ref, err := DecomposeWith(im, Daubechies8(), WithLevels(3))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := DecomposeWith(im, Daubechies8(), WithLevels(3), WithTolerance(eps))
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff, maxRef float64
	drift := func(a, b *image.Image) {
		for r := 0; r < a.Rows; r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				maxDiff = math.Max(maxDiff, math.Abs(ra[c]-rb[c]))
				maxRef = math.Max(maxRef, math.Abs(ra[c]))
			}
		}
	}
	drift(ref.Approx, seq.Approx)
	for i := range ref.Levels {
		drift(ref.Levels[i].LH, seq.Levels[i].LH)
		drift(ref.Levels[i].HL, seq.Levels[i].HL)
		drift(ref.Levels[i].HH, seq.Levels[i].HH)
	}
	if maxDiff/maxRef > eps {
		t.Errorf("lifted drift %.3g exceeds eps %.3g", maxDiff/maxRef, eps)
	}

	par, err := DecomposeWith(im, Daubechies8(), WithLevels(3), WithTolerance(eps), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	facadeBitIdentical(t, "parallel-vs-sequential-lifted", seq, par)

	batch, err := DecomposeAllWith([]*Image{im, im}, Daubechies8(), WithLevels(3), WithTolerance(eps))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range batch {
		facadeBitIdentical(t, "batch-lifted", seq, p)
	}
}

// TestWithToleranceFallsBackOffPeriodic: symmetric extension cannot ride
// the lifting tier; a tolerant request must still be bit-identical to
// the default convolution output there.
func TestWithToleranceFallsBackOffPeriodic(t *testing.T) {
	im := image.Landsat(32, 32, 3)
	def, err := DecomposeWith(im, Daubechies8(), WithLevels(2), WithExtension(Symmetric))
	if err != nil {
		t.Fatal(err)
	}
	tol, err := DecomposeWith(im, Daubechies8(), WithLevels(2), WithExtension(Symmetric), WithTolerance(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	facadeBitIdentical(t, "symmetric-fallback", def, tol)
}

// TestWithToleranceCustomBanksSharingAName: two custom banks may carry
// the same name with different coefficients. The lifting tier must run
// each bank's own factorization, so the second bank's pyramid stays
// within its own scheme's Eps of the reference transform of its own
// coefficients.
func TestWithToleranceCustomBanksSharingAName(t *testing.T) {
	mine := func(from *FilterBank) *FilterBank {
		return &FilterBank{Name: "mine", DecLo: from.DecLo, DecHi: from.DecHi, RecLo: from.RecLo, RecHi: from.RecHi}
	}
	cdf, err := filter.ByName("cdf5/3")
	if err != nil {
		t.Fatal(err)
	}
	own, err := filter.Lifting(cdf)
	if err != nil {
		t.Fatal(err)
	}
	first, second := mine(Daubechies4()), mine(cdf)
	im := image.Landsat(64, 64, 3)
	if _, err := DecomposeWith(im, first, WithLevels(3), WithTolerance(1e-6)); err != nil {
		t.Fatal(err)
	}
	got, err := DecomposeWith(im, second, WithLevels(3), WithTolerance(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := wavelet.DecomposeReference(im, second, filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff, maxRef float64
	band := func(a, b *image.Image) {
		for i, v := range a.Pix {
			maxDiff = math.Max(maxDiff, math.Abs(v-b.Pix[i]))
			maxRef = math.Max(maxRef, math.Abs(v))
		}
	}
	band(ref.Approx, got.Approx)
	for i := range ref.Levels {
		band(ref.Levels[i].LH, got.Levels[i].LH)
		band(ref.Levels[i].HL, got.Levels[i].HL)
		band(ref.Levels[i].HH, got.Levels[i].HH)
	}
	if rel := maxDiff / maxRef; rel > own.Eps {
		t.Fatalf("second bank named %q drifts %.3g from its own reference, want <= Eps %.3g", second.Name, rel, own.Eps)
	}
}
