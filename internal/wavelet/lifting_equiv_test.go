package wavelet

import (
	"math"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// Drift-bound verification harness for the lifting tier. Lifting
// reorders floating-point accumulation, so the tier's whole contract is
// quantitative: for every combination it serves, the output must stay
// within the scheme's advertised Eps of the reference transform — and
// for every combination it does not serve, the output must remain
// bit-identical to the convolution tier. Both halves are enforced here
// across bank × extension × shape × level on seeded noise and
// natural-image fixtures.

// pyramidDrift returns the max-abs and L2 drift of got vs ref, both
// relative: max-abs against the largest reference coefficient, L2
// against the reference energy, across the approximation and every
// detail band.
func pyramidDrift(ref, got *Pyramid) (rel, relL2 float64) {
	var maxDiff, maxRef, sumDiff2, sumRef2 float64
	accum := func(a, b *image.Image) {
		for r := 0; r < a.Rows; r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				d := math.Abs(ra[c] - rb[c])
				if d > maxDiff {
					maxDiff = d
				}
				if ar := math.Abs(ra[c]); ar > maxRef {
					maxRef = ar
				}
				sumDiff2 += d * d
				sumRef2 += ra[c] * ra[c]
			}
		}
	}
	accum(ref.Approx, got.Approx)
	for i := range ref.Levels {
		accum(ref.Levels[i].LH, got.Levels[i].LH)
		accum(ref.Levels[i].HL, got.Levels[i].HL)
		accum(ref.Levels[i].HH, got.Levels[i].HH)
	}
	if maxRef == 0 {
		maxRef = 1
	}
	if sumRef2 == 0 {
		sumRef2 = 1
	}
	return maxDiff / maxRef, math.Sqrt(sumDiff2 / sumRef2)
}

// liftingScheme resolves the lifting scheme the dispatcher would use
// when offered a tolerance covering the bank's own Eps, or nil when the
// combination never dispatches lifting.
func liftingScheme(b *filter.Bank, ext filter.Extension) *filter.LiftingScheme {
	return LiftingFor(b, ext, 1)
}

// TestLiftingDriftBounds is the drift-bound property suite: for every
// catalog bank, extension, odd/even-ish shape, and depth 1–5, a
// decomposition requested at exactly the bank's advertised Eps either
// (a) dispatches lifting and stays within Eps of DecomposeReference in
// both max-abs and relative-L2 drift, or (b) cannot be served by the
// lifting tier and is then bit-identical to the convolution tier.
func TestLiftingDriftBounds(t *testing.T) {
	shapes := [][2]int{{32, 96}, {64, 64}, {160, 32}}
	for _, name := range filter.Names() {
		b, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range allExtensions() {
			sch := liftingScheme(b, ext)
			for _, sh := range shapes {
				im := image.Landsat(sh[0], sh[1], 7)
				for levels := 1; levels <= 5; levels++ {
					if CheckDecomposable(sh[0], sh[1], levels) != nil {
						continue
					}
					eps := 1e-12 // below every advertised Eps: never dispatches
					if sch != nil {
						eps = sch.Eps
					}
					got, err := DecomposeTol(im, b, ext, levels, eps)
					if err != nil {
						t.Fatal(err)
					}
					label := name + "/" + ext.String()
					if sch == nil {
						conv, err := Decompose(im, b, ext, levels)
						if err != nil {
							t.Fatal(err)
						}
						requirePyramidsBitIdentical(t, label+"/no-dispatch", conv, got)
						continue
					}
					ref, err := DecomposeReference(im, b, ext, levels)
					if err != nil {
						t.Fatal(err)
					}
					rel, relL2 := pyramidDrift(ref, got)
					if rel > sch.Eps || relL2 > sch.Eps {
						t.Errorf("%s %dx%d L%d: drift max-abs %.3g, L2 %.3g exceeds advertised eps %.3g",
							label, sh[0], sh[1], levels, rel, relL2, sch.Eps)
					}
				}
			}
		}
	}
}

// TestLiftingBelowEpsStaysOnConvolution: a positive tolerance smaller
// than the scheme's Eps must not dispatch lifting — the convolution
// tier serves it bit-identically. This pins the dispatch inequality
// (tol >= Eps), not just the tol = 0 case.
func TestLiftingBelowEpsStaysOnConvolution(t *testing.T) {
	b := filter.Daubechies8()
	sch := liftingScheme(b, filter.Periodic)
	if sch == nil {
		t.Fatal("db8 should admit lifting under periodic extension")
	}
	im := image.Landsat(64, 64, 3)
	conv, err := Decompose(im, b, filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecomposeTol(im, b, filter.Periodic, 3, sch.Eps/2)
	if err != nil {
		t.Fatal(err)
	}
	requirePyramidsBitIdentical(t, "below-eps", conv, got)
}

// TestLiftingStatisticalEquivalence is the statistical gate: across
// seeded-noise and natural-image trials, the lifted tier's relative-L2
// drift must stay within the advertised Eps on every trial, with the
// worst case recorded. This is the CI evidence that Eps is a real bound,
// not a lucky fixture.
func TestLiftingStatisticalEquivalence(t *testing.T) {
	trials := 20
	for _, name := range []string{"haar", "cdf5/3", "db8", "bior4.4", "sym6"} {
		b, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sch := liftingScheme(b, filter.Periodic)
		if sch == nil {
			t.Fatalf("%s should admit lifting under periodic extension", name)
		}
		var worstAbs, worstL2, sumL2 float64
		for trial := 0; trial < trials; trial++ {
			im := image.Landsat(64, 96, uint64(1000+trial))
			if trial%2 == 1 {
				// Alternate with zero-mean noise around a ramp so both
				// natural-image and noise statistics are covered.
				for r := 0; r < im.Rows; r++ {
					row := im.Row(r)
					for c := range row {
						row[c] = row[c] - 128 + float64(r-c)
					}
				}
			}
			ref, err := DecomposeReference(im, b, filter.Periodic, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecomposeTol(im, b, filter.Periodic, 3, sch.Eps)
			if err != nil {
				t.Fatal(err)
			}
			rel, relL2 := pyramidDrift(ref, got)
			worstAbs = math.Max(worstAbs, rel)
			worstL2 = math.Max(worstL2, relL2)
			sumL2 += relL2
		}
		if worstAbs > sch.Eps || worstL2 > sch.Eps {
			t.Errorf("%s: worst drift over %d trials max-abs %.3g / L2 %.3g exceeds eps %.3g",
				name, trials, worstAbs, worstL2, sch.Eps)
		}
		t.Logf("%-8s eps=%.3g worst max-abs=%.3g worst L2=%.3g mean L2=%.3g",
			name, sch.Eps, worstAbs, worstL2, sumL2/float64(trials))
	}
}

// TestLiftingPerfectReconstruction: decompose on the lifting tier,
// reconstruct through the reference synthesis — the roundtrip must stay
// within the advertised drift of the original (the synthesis bank
// inverts the convolution analysis, and the lifted analysis is within
// Eps of it).
func TestLiftingPerfectReconstruction(t *testing.T) {
	for _, name := range []string{"haar", "cdf5/3", "db4", "db8", "bior4.4", "rbio4.4", "sym6"} {
		b, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sch := liftingScheme(b, filter.Periodic)
		if sch == nil {
			t.Fatalf("%s should admit lifting under periodic extension", name)
		}
		im := image.Landsat(64, 64, 11)
		p, err := DecomposeTol(im, b, filter.Periodic, 3, sch.Eps)
		if err != nil {
			t.Fatal(err)
		}
		rec := Reconstruct(p)
		var maxDiff, maxRef float64
		for r := 0; r < im.Rows; r++ {
			ra, rb := im.Row(r), rec.Row(r)
			for c := range ra {
				maxDiff = math.Max(maxDiff, math.Abs(ra[c]-rb[c]))
				maxRef = math.Max(maxRef, math.Abs(ra[c]))
			}
		}
		// Eps covers the lifted analysis drift; the small additive term
		// absorbs the reference synthesis' own rounding.
		if bound := sch.Eps + 1e-11; maxDiff/maxRef > bound {
			t.Errorf("%s: roundtrip relative error %.3g exceeds %.3g", name, maxDiff/maxRef, bound)
		}
	}
}

// TestDecomposerLiftingSteadyStateAllocs is the allocation gate of the
// lifting tier: a warmed lifting-tier Decomposer performs zero heap
// allocations per decomposition, same as the convolution tier.
func TestDecomposerLiftingSteadyStateAllocs(t *testing.T) {
	im := image.Landsat(128, 128, 42)
	b := filter.Daubechies8()
	sch := liftingScheme(b, filter.Periodic)
	if sch == nil {
		t.Fatal("db8 should admit lifting")
	}
	d := NewDecomposerTol(b, filter.Periodic, 3, sch.Eps)
	if d.sweep.sch == nil {
		t.Fatal("NewDecomposerTol at eps = scheme Eps did not resolve the lifting tier")
	}
	if _, err := d.Decompose(im); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := d.Decompose(im); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state lifting Decomposer allocates %.1f objects/op, want 0", allocs)
	}
}

// TestNewDecomposerTolDispatch pins the constructor's tier resolution,
// which is LiftingFor's rule: tolerance 0, non-periodic extensions,
// unfactorable banks and a nil bank keep the convolution tier; a
// covering tolerance under periodic extension selects lifting.
func TestNewDecomposerTolDispatch(t *testing.T) {
	db8 := filter.Daubechies8()
	sym7, err := filter.ByName("sym7")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		bank    *filter.Bank
		ext     filter.Extension
		tol     float64
		lifting bool
	}{
		{"tol=0", db8, filter.Periodic, 0, false},
		{"symmetric", db8, filter.Symmetric, 1, false},
		{"zero", db8, filter.Zero, 1, false},
		{"sym7 (factorization pinned degenerate)", sym7, filter.Periodic, 1, false},
		{"nil bank", nil, filter.Periodic, 1, false},
		{"db8/periodic/tol=1", db8, filter.Periodic, 1, true},
	} {
		if got := NewDecomposerTol(c.bank, c.ext, 2, c.tol).sweep.sch != nil; got != c.lifting {
			t.Errorf("%s: lifting tier = %v, want %v", c.name, got, c.lifting)
		}
		if got := LiftingFor(c.bank, c.ext, c.tol) != nil; got != c.lifting {
			t.Errorf("%s: LiftingFor resolved a scheme = %v, want %v", c.name, got, c.lifting)
		}
	}
}

// TestDecomposerTolReusable: the lifting-tier Decomposer stays within
// drift bounds across repeated calls and shape changes (the reused
// buffers are fully overwritten each call).
func TestDecomposerTolReusable(t *testing.T) {
	b, err := filter.ByName("cdf5/3")
	if err != nil {
		t.Fatal(err)
	}
	sch := liftingScheme(b, filter.Periodic)
	d := NewDecomposerTol(b, filter.Periodic, 2, sch.Eps)
	for _, sh := range [][2]int{{64, 32}, {64, 32}, {16, 16}, {64, 32}} {
		im := image.Landsat(sh[0], sh[1], uint64(sh[0]))
		ref, err := DecomposeReference(im, b, filter.Periodic, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Decompose(im)
		if err != nil {
			t.Fatal(err)
		}
		rel, relL2 := pyramidDrift(ref, got)
		if rel > sch.Eps || relL2 > sch.Eps {
			t.Errorf("%dx%d: drift %.3g/%.3g exceeds %.3g", sh[0], sh[1], rel, relL2, sch.Eps)
		}
	}
}
