package wavelet

import (
	"math"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// Equivalence suite: the fast-path kernels must produce bit-identical
// pyramids to the reference path for every bank × extension × shape,
// including non-square images and the minimum 2×2 case. This is the
// contract that lets the kernels block, unroll, and pool aggressively
// while the exptables goldens of earlier PRs stay byte-identical.

func allExtensions() []filter.Extension {
	return []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero}
}

// requireBitIdentical fails unless a and b match in shape and every
// coefficient pair is the same 64-bit pattern.
func requireBitIdentical(t *testing.T, label string, a, b *image.Image) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for r := 0; r < a.Rows; r++ {
		ra, rb := a.Row(r), b.Row(r)
		for c := range ra {
			if math.Float64bits(ra[c]) != math.Float64bits(rb[c]) {
				t.Fatalf("%s at (%d,%d): %g (%#x) vs %g (%#x)",
					label, r, c, ra[c], math.Float64bits(ra[c]), rb[c], math.Float64bits(rb[c]))
			}
		}
	}
}

func requirePyramidsBitIdentical(t *testing.T, label string, ref, got *Pyramid) {
	t.Helper()
	if len(ref.Levels) != len(got.Levels) {
		t.Fatalf("%s: depth %d vs %d", label, len(ref.Levels), len(got.Levels))
	}
	requireBitIdentical(t, label+"/approx", ref.Approx, got.Approx)
	for i := range ref.Levels {
		requireBitIdentical(t, label+"/LH", ref.Levels[i].LH, got.Levels[i].LH)
		requireBitIdentical(t, label+"/HL", ref.Levels[i].HL, got.Levels[i].HL)
		requireBitIdentical(t, label+"/HH", ref.Levels[i].HH, got.Levels[i].HH)
	}
}

// TestFastPathBitIdenticalToReference sweeps every bank, extension, and
// a set of shapes from the 2×2 minimum through non-square rectangles,
// comparing Decompose (auto-dispatched fast path) against
// DecomposeReference bit for bit.
func TestFastPathBitIdenticalToReference(t *testing.T) {
	shapes := [][2]int{{2, 2}, {2, 8}, {8, 2}, {4, 8}, {16, 64}, {64, 16}, {64, 64}, {128, 32}}
	for _, b := range banks() {
		for _, ext := range allExtensions() {
			for _, sh := range shapes {
				im := image.Landsat(sh[0], sh[1], 7)
				for levels := 1; levels <= 3; levels++ {
					if CheckDecomposable(sh[0], sh[1], levels) != nil {
						continue
					}
					ref, err := DecomposeReference(im, b, ext, levels)
					if err != nil {
						t.Fatal(err)
					}
					fast, err := Decompose(im, b, ext, levels)
					if err != nil {
						t.Fatal(err)
					}
					label := b.Name + "/" + ext.String()
					requirePyramidsBitIdentical(t, label, ref, fast)
				}
			}
		}
	}
}

// TestDecomposerBitIdenticalAndReusable checks the steady-state path:
// repeated Decomposer calls on different images must each be
// bit-identical to the reference, proving the reused buffers are fully
// overwritten (no stale state leaks between calls or shapes).
func TestDecomposerBitIdenticalAndReusable(t *testing.T) {
	for _, b := range banks() {
		d := NewDecomposer(b, filter.Periodic, 2)
		for _, seed := range []uint64{1, 2, 3} {
			im := image.Landsat(64, 32, seed)
			ref, err := DecomposeReference(im, b, filter.Periodic, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Decompose(im)
			if err != nil {
				t.Fatal(err)
			}
			requirePyramidsBitIdentical(t, b.Name, ref, got)
		}
		// Shape change mid-stream resizes and stays correct.
		im := image.Landsat(16, 16, 9)
		ref, err := DecomposeReference(im, b, filter.Periodic, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Decompose(im)
		if err != nil {
			t.Fatal(err)
		}
		requirePyramidsBitIdentical(t, b.Name+"/reshaped", ref, got)
	}
}

// TestDecomposerSteadyStateAllocs is the allocation gate of the fast
// path: after warm-up, a full 3-level decomposition through a
// Decomposer performs zero heap allocations — for D8 and haar (the
// unrolled column combines), bior4.4 (odd length) and rbio4.4 (split
// channel lengths), under periodic and symmetric extension.
func TestDecomposerSteadyStateAllocs(t *testing.T) {
	im := image.Landsat(128, 128, 42)
	for _, name := range []string{"db8", "haar", "bior4.4", "rbio4.4"} {
		b, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range []filter.Extension{filter.Periodic, filter.Symmetric} {
			d := NewDecomposer(b, ext, 3)
			if _, err := d.Decompose(im); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := d.Decompose(im); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("%s/%s: steady-state Decomposer allocates %.1f objects/op, want 0", name, ext, allocs)
			}
		}
	}
}

// TestDecomposeErrorsMatchReference verifies the dispatcher rejects
// exactly what the reference rejects.
func TestDecomposeErrorsMatchReference(t *testing.T) {
	im := image.New(48, 64)
	if _, err := Decompose(im, filter.Haar(), filter.Periodic, 5); err == nil {
		t.Error("fast path accepted 48x64 at 5 levels")
	}
	if _, err := NewDecomposer(filter.Haar(), filter.Periodic, 5).Decompose(im); err == nil {
		t.Error("Decomposer accepted 48x64 at 5 levels")
	}
	if _, err := Decompose(im, filter.Haar(), filter.Periodic, 0); err == nil {
		t.Error("levels=0 accepted")
	}
}

// TestUnknownExtensionFusedMatchesReference pins the fused path on an
// extension value outside the known set: Decompose runs it through the
// same kernels as every other extension (borders resolve through
// Extension.Index, as in the reference) and must match
// DecomposeReference bit for bit, not panic in a specialized kernel.
func TestUnknownExtensionFusedMatchesReference(t *testing.T) {
	im := image.Landsat(16, 16, 3)
	ext := filter.Extension(99)
	ref, err := DecomposeReference(im, filter.Haar(), ext, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompose(im, filter.Haar(), ext, 1)
	if err != nil {
		t.Fatal(err)
	}
	requirePyramidsBitIdentical(t, "unknown-ext", ref, got)
}

// TestDecomposeRejectsEmptyBank: every sequential forward entry panics
// with a *UsageError on a bank missing an analysis channel, instead of
// indexing or dividing by its zero length inside a kernel.
func TestDecomposeRejectsEmptyBank(t *testing.T) {
	im := image.Landsat(16, 16, 3)
	for _, b := range []*filter.Bank{nil, {Name: "empty"}, {Name: "lo only", DecLo: filter.Haar().DecLo}} {
		requireUsagePanic(t, "Decompose", "Decompose", func() { Decompose(im, b, filter.Periodic, 2) })
		requireUsagePanic(t, "DecomposeTol", "Decompose", func() { DecomposeTol(im, b, filter.Periodic, 2, 1) })
		requireUsagePanic(t, "Decomposer", "Decompose", func() { NewDecomposer(b, filter.Periodic, 2).Decompose(im) })
	}
}

// TestAnalyzeRowsTypedPanic pins the PR 3 typed-error contract on the
// wavelet package: AnalyzeRows on an odd column count panics with a
// *UsageError carrying the op name, and the message text matches the
// historical string.
func TestAnalyzeRowsTypedPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on odd column count")
		}
		ue, ok := r.(*UsageError)
		if !ok {
			t.Fatalf("panic value %T, want *UsageError", r)
		}
		if ue.Op != "AnalyzeRows" {
			t.Errorf("Op = %q, want AnalyzeRows", ue.Op)
		}
		if want := "wavelet: AnalyzeRows on odd column count 3"; ue.Error() != want {
			t.Errorf("Error() = %q, want %q", ue.Error(), want)
		}
	}()
	AnalyzeRows(image.New(2, 3), filter.Haar(), filter.Periodic)
}

// TestConvTypedPanics pins the remaining converted panic sites.
func TestConvTypedPanics(t *testing.T) {
	cases := []struct {
		op string
		fn func()
	}{
		{"AnalyzeStep", func() { AnalyzeStep(make([]float64, 3), filter.Haar().DecLo, filter.Periodic, nil) }},
		{"SynthesizeStep", func() { SynthesizeStep(make([]float64, 4), filter.Haar().DecLo, filter.Periodic, make([]float64, 7)) }},
		{"Synthesize1D", func() { Synthesize1D(make([]float64, 2), make([]float64, 3), filter.Haar(), filter.Periodic) }},
		{"AnalyzeCols", func() { AnalyzeCols(image.New(3, 2), filter.Haar(), filter.Periodic) }},
		{"SynthesizeCols", func() { SynthesizeCols(image.New(2, 2), image.New(2, 3), filter.Haar(), filter.Periodic) }},
		{"SynthesizeRows", func() { SynthesizeRows(image.New(2, 2), image.New(2, 3), filter.Haar(), filter.Periodic) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				ue, ok := r.(*UsageError)
				if !ok {
					t.Errorf("%s: panic value %T, want *UsageError", tc.op, r)
					return
				}
				if ue.Op != tc.op {
					t.Errorf("Op = %q, want %q", ue.Op, tc.op)
				}
			}()
			tc.fn()
		}()
	}
}
