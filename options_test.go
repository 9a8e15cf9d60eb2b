package wavelethpc

import (
	"errors"
	"fmt"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// The options-facade equivalence suite: DecomposeWith must be
// byte-identical (math.Float64bits per pixel) to the deprecated entry
// points it replaces AND to the reference transform, for every bank and
// a spread of shapes. This is the acceptance gate for the facade
// redesign — delegation is proven, not assumed.

var facadeBanks = []struct {
	name string
	bank *FilterBank
}{
	{"haar", Haar()},
	{"db4", Daubechies4()},
	{"db6", Daubechies6()},
	{"db8", Daubechies8()},
}

var facadeShapes = []struct {
	rows, cols, levels int
}{
	{32, 32, 2},
	{64, 32, 3},
	{48, 16, 2},
}

func requireSamePyramidBits(t *testing.T, label string, want, got *Pyramid) {
	t.Helper()
	if want.Depth() != got.Depth() {
		t.Fatalf("%s: depth %d vs %d", label, want.Depth(), got.Depth())
	}
	if !image.EqualBits(want.Approx, got.Approx) {
		t.Fatalf("%s: approximation bits differ", label)
	}
	for i := range want.Levels {
		if !image.EqualBits(want.Levels[i].LH, got.Levels[i].LH) ||
			!image.EqualBits(want.Levels[i].HL, got.Levels[i].HL) ||
			!image.EqualBits(want.Levels[i].HH, got.Levels[i].HH) {
			t.Fatalf("%s: detail level %d bits differ", label, i)
		}
	}
}

func TestDecomposeWithMatchesDeprecatedAndReference(t *testing.T) {
	for _, b := range facadeBanks {
		for _, sh := range facadeShapes {
			t.Run(fmt.Sprintf("%s_%dx%d_L%d", b.name, sh.rows, sh.cols, sh.levels), func(t *testing.T) {
				im := Landsat(sh.rows, sh.cols, 42)
				ref, err := wavelet.DecomposeReference(im, b.bank, filter.Periodic, sh.levels)
				if err != nil {
					t.Fatal(err)
				}
				oldP, err := Decompose(im, b.bank, sh.levels)
				if err != nil {
					t.Fatal(err)
				}
				newP, err := DecomposeWith(im, b.bank, WithLevels(sh.levels))
				if err != nil {
					t.Fatal(err)
				}
				requireSamePyramidBits(t, "deprecated vs options", oldP, newP)
				requireSamePyramidBits(t, "options vs reference", ref, newP)
			})
		}
	}
}

func TestParallelDecomposeMatchesWithWorkers(t *testing.T) {
	im := Landsat(64, 64, 7)
	for _, b := range facadeBanks {
		for _, workers := range []int{0, 1, 3} {
			seq, err := DecomposeWith(im, b.bank, WithLevels(3))
			if err != nil {
				t.Fatal(err)
			}
			oldP, err := ParallelDecompose(im, b.bank, 3, workers)
			if err != nil {
				t.Fatal(err)
			}
			newP, err := DecomposeWith(im, b.bank, WithLevels(3), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s workers=%d", b.name, workers)
			requireSamePyramidBits(t, label+" deprecated vs options", oldP, newP)
			requireSamePyramidBits(t, label+" parallel vs sequential", seq, newP)
		}
	}
}

func TestDecomposeAllWithMatchesBatch(t *testing.T) {
	images := LandsatBands(32, 32, 5, 11)
	bank := Daubechies8()
	oldPs, err := DecomposeBatch(images, bank, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	newPs, err := DecomposeAllWith(images, bank, WithLevels(2), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defaulted, err := DecomposeAllWith(images, bank, WithLevels(2)) // workers default GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if len(oldPs) != len(images) || len(newPs) != len(images) {
		t.Fatalf("lengths: old %d, new %d, want %d", len(oldPs), len(newPs), len(images))
	}
	for i := range images {
		single, err := DecomposeWith(images[i], bank, WithLevels(2))
		if err != nil {
			t.Fatal(err)
		}
		requireSamePyramidBits(t, fmt.Sprintf("image %d deprecated vs options", i), oldPs[i], newPs[i])
		requireSamePyramidBits(t, fmt.Sprintf("image %d batch vs single", i), single, newPs[i])
		requireSamePyramidBits(t, fmt.Sprintf("image %d default workers", i), single, defaulted[i])
	}
}

func TestWithExtensionSelectsBorderPolicy(t *testing.T) {
	im := Landsat(32, 32, 5)
	bank := Daubechies4()
	for _, ext := range []Extension{Periodic, Symmetric, Zero} {
		want, err := wavelet.DecomposeReference(im, bank, ext, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecomposeWith(im, bank, WithLevels(2), WithExtension(ext))
		if err != nil {
			t.Fatal(err)
		}
		requireSamePyramidBits(t, fmt.Sprintf("extension %v", ext), want, got)
	}
}

// TestOptionValidation: every misuse surfaces as an error wrapping
// *wavelet.UsageError — the facade never panics on bad input.
func TestOptionValidation(t *testing.T) {
	im := Landsat(32, 32, 1)
	bank := Haar()
	empty := &FilterBank{Name: "empty"}
	loOnly := &FilterBank{Name: "lo only", DecLo: bank.DecLo}
	cases := []struct {
		name string
		err  func() error
	}{
		{"nil image", func() error { _, err := DecomposeWith(nil, bank); return err }},
		{"nil bank", func() error { _, err := DecomposeWith(im, nil); return err }},
		{"nil option", func() error { _, err := DecomposeWith(im, bank, nil); return err }},
		{"levels 0", func() error { _, err := DecomposeWith(im, bank, WithLevels(0)); return err }},
		{"levels -2", func() error { _, err := DecomposeWith(im, bank, WithLevels(-2)); return err }},
		{"workers -1", func() error { _, err := DecomposeWith(im, bank, WithWorkers(-1)); return err }},
		{"bad extension", func() error { _, err := DecomposeWith(im, bank, WithExtension(Extension(99))); return err }},
		{"batch nil image", func() error {
			_, err := DecomposeAllWith([]*Image{im, nil}, bank, WithLevels(1))
			return err
		}},
		{"batch nil bank", func() error { _, err := DecomposeAllWith([]*Image{im}, nil); return err }},
		// A bank without analysis filters must not reach a kernel, where
		// it would divide by the zero filter length in a pool worker.
		{"empty bank", func() error { _, err := DecomposeWith(im, empty, WithLevels(2)); return err }},
		{"empty bank, workers", func() error { _, err := DecomposeWith(im, empty, WithLevels(2), WithWorkers(2)); return err }},
		{"low channel only, workers", func() error { _, err := DecomposeWith(im, loOnly, WithWorkers(2)); return err }},
		{"batch empty bank", func() error { _, err := DecomposeAllWith([]*Image{im, im}, empty, WithLevels(2)); return err }},
	}
	for _, c := range cases {
		err := c.err()
		var ue *wavelet.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: err = %v, want wrapped *wavelet.UsageError", c.name, err)
		}
	}

	// Dimensional misuse is an error too, not a panic.
	if _, err := DecomposeWith(Landsat(10, 10, 1), bank, WithLevels(2)); err == nil {
		t.Error("10x10 at 2 levels: want error, got nil")
	}
	for _, opts := range [][]Option{{WithLevels(64)}, {WithLevels(64), WithWorkers(2)}} {
		if _, err := DecomposeWith(im, bank, opts...); err == nil {
			t.Errorf("%d options with 64 levels: want error, got nil", len(opts))
		}
	}
}

// TestGuardDecomposeShield: the facade's recover shield converts
// internal contract-violation panics (*wavelet.UsageError) to errors
// and re-raises everything else untouched.
func TestGuardDecomposeShield(t *testing.T) {
	_, err := guardDecompose(func() (*Pyramid, error) {
		panic(&wavelet.UsageError{Op: "test", Detail: "synthetic violation"})
	})
	var ue *wavelet.UsageError
	if !errors.As(err, &ue) || ue.Op != "test" {
		t.Fatalf("err = %v, want wrapped synthetic *wavelet.UsageError", err)
	}

	defer func() {
		if r := recover(); r != "unrelated" {
			t.Fatalf("recovered %v, want the unrelated panic to pass through", r)
		}
	}()
	guardDecompose(func() (*Pyramid, error) { panic("unrelated") })
}
