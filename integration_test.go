package wavelethpc

// Integration tests: end-to-end scenarios spanning multiple subsystems,
// mirroring how the CLI tools and the paper's evaluation wire the pieces
// together.

import (
	"math"
	"strings"
	"testing"

	"wavelethpc/internal/core"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/mesh"
	"wavelethpc/internal/nbody"
	"wavelethpc/internal/oracle"
	"wavelethpc/internal/pic"
	"wavelethpc/internal/registration"
	"wavelethpc/internal/simd"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/workload"
)

// TestEndToEndTable1Pipeline runs the full Table 1 regeneration exactly
// as cmd/exptables does and checks every reproduced cell against the
// paper within tolerance.
func TestEndToEndTable1Pipeline(t *testing.T) {
	im := image.Landsat(512, 512, 42)
	rows, err := core.Table1(im, simd.Table1MasPar())
	if err != nil {
		t.Fatal(err)
	}
	paper := [4][3]float64{
		{0.0169, 0.0138, 0.0123}, // MasPar
		{4.227, 3.45, 2.78},      // Paragon 1
		{0.613, 0.632, 0.6623},   // Paragon 32
		{5.47, 4.54, 4.11},       // DEC 5000
	}
	tol := [4]float64{0.02, 0.03, 0.08, 0.08}
	for i, row := range rows {
		for j, got := range row.Seconds {
			want := paper[i][j]
			if math.Abs(got-want) > tol[i]*want {
				t.Errorf("%s col %d: %g, want %g ± %.0f%%", row.Machine, j, got, want, tol[i]*100)
			}
		}
	}
	out := core.FormatTable1(rows)
	for _, needle := range []string{"MasPar", "Paragon", "DEC 5000", "F8/L1"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Table 1 text missing %q", needle)
		}
	}
}

// TestEndToEndImagePipeline exercises the full image path: synthesize →
// save → load → decompose (parallel) → threshold → reconstruct
// (distributed, simulated) → quality check.
func TestEndToEndImagePipeline(t *testing.T) {
	im := image.Landsat(128, 128, 11)
	path := t.TempDir() + "/scene.pgm"
	if err := image.SavePGM(path, im); err != nil {
		t.Fatal(err)
	}
	loaded, err := image.LoadPGM(path)
	if err != nil {
		t.Fatal(err)
	}
	pyr, err := core.ParallelDecomposeTol(loaded, filter.Daubechies8(), filter.Periodic, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	kept, total := pyr.Threshold(4)
	if kept <= 0 || kept >= total {
		t.Fatalf("threshold kept %d of %d", kept, total)
	}
	back, _, err := core.DistributedReconstruct(pyr, core.DistConfig{
		Machine:   mesh.Paragon(),
		Placement: mesh.SnakePlacement{Width: 4},
		Procs:     8,
		Bank:      filter.Daubechies8(),
		Levels:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if psnr := image.PSNR(loaded, back); psnr < 35 {
		t.Errorf("compressed round-trip PSNR %g dB", psnr)
	}
}

// TestEndToEndRegistrationOnDecomposedScene chains registration with the
// compression path: a thresholded/reconstructed scene still registers
// against the original.
func TestEndToEndRegistrationOnDecomposedScene(t *testing.T) {
	fixed := image.Landsat(128, 128, 13)
	pyr, err := wavelet.Decompose(fixed, filter.Daubechies8(), filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	pyr.Threshold(8)
	lossy := wavelet.Reconstruct(pyr)
	want := registration.Shift{DY: 9, DX: -6}
	moving := registration.CircularShift(lossy, want)
	res, err := registration.Register(fixed, moving, registration.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shift != want {
		t.Errorf("lossy registration: %v, want %v", res.Shift, want)
	}
}

// TestEndToEndAppendixBConsistency cross-checks the two Appendix B
// applications on the same simulated machines: on the T3D both run
// faster, but N-body gains an order of magnitude while PIC gains only a
// small factor.
func TestEndToEndAppendixBConsistency(t *testing.T) {
	nbodyRes := map[string]float64{}
	picRes := map[string]float64{}
	for _, machine := range []string{"paragon", "t3d"} {
		nb, err := nbody.RunScaling(machine, 1024, []int{8}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		nbodyRes[machine] = nb[0].PerStep
		pc, err := pic.RunScaling(machine, 65536, 32, []int{8}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		picRes[machine] = pc[0].PerStep
	}
	nbodyGain := nbodyRes["paragon"] / nbodyRes["t3d"]
	picGain := picRes["paragon"] / picRes["t3d"]
	if nbodyGain < 2*picGain {
		t.Errorf("N-body T3D gain %.1fx not clearly above PIC's %.1fx", nbodyGain, picGain)
	}
}

// TestEndToEndWorkloadPipelineFromFile runs the Appendix C pipeline
// through trace files: generate → save → load → schedule → centroid →
// similarity.
func TestEndToEndWorkloadPipelineFromFile(t *testing.T) {
	dir := t.TempDir()
	specs := oracle.NASKernels()[:3]
	cents := map[string]oracle.PI{}
	for _, spec := range specs {
		path := dir + "/" + spec.Name + ".trc"
		if err := oracle.SaveTrace(path, spec.Generate()); err != nil {
			t.Fatal(err)
		}
		trace, err := oracle.LoadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		cents[spec.Name] = workload.Centroid(oracle.Schedule(trace))
	}
	s := workload.Similarity(cents["embar"], cents["mgrid"])
	if s <= 0 || s >= 1 {
		t.Errorf("embar-mgrid similarity %g out of open interval", s)
	}
}

// TestEndToEndSimulatorsAgreeOnCoefficients checks that every
// implementation path (sequential, goroutine-parallel, simulated MIMD
// striped, simulated MIMD block, functional SIMD systolic, functional
// SIMD dilution) computes the same wavelet coefficients.
func TestEndToEndSimulatorsAgreeOnCoefficients(t *testing.T) {
	im := image.Landsat(64, 64, 17)
	bank := filter.Daubechies4()
	const levels = 2
	ref, err := wavelet.Decompose(im, bank, filter.Periodic, levels)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]func() (*wavelet.Pyramid, error){
		"goroutines": func() (*wavelet.Pyramid, error) {
			return core.ParallelDecomposeTol(im, bank, filter.Periodic, levels, 3, 0)
		},
		"mimd-striped": func() (*wavelet.Pyramid, error) {
			res, err := core.DistributedDecompose(im, core.DistConfig{
				Machine: mesh.Paragon(), Placement: mesh.SnakePlacement{Width: 4},
				Procs: 4, Bank: bank, Levels: levels,
			})
			if err != nil {
				return nil, err
			}
			return res.Pyramid, nil
		},
		"mimd-block": func() (*wavelet.Pyramid, error) {
			res, err := core.BlockDecompose(im, core.DistConfig{
				Machine: mesh.Paragon(), Placement: mesh.SnakePlacement{Width: 4},
				Procs: 4, Bank: bank, Levels: levels,
			})
			if err != nil {
				return nil, err
			}
			return res.Pyramid, nil
		},
		"simd-systolic": func() (*wavelet.Pyramid, error) {
			return simd.SystolicDecompose(im, bank, levels)
		},
		"simd-dilution": func() (*wavelet.Pyramid, error) {
			return simd.DilutedDecompose2D(im, bank, levels)
		},
	}
	for name, fn := range checks {
		p, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !image.Equal(ref.Approx, p.Approx, 1e-9) {
			t.Errorf("%s: approximation band diverges", name)
		}
		for l := range ref.Levels {
			if !image.Equal(ref.Levels[l].HH, p.Levels[l].HH, 1e-9) {
				t.Errorf("%s: HH level %d diverges", name, l)
			}
		}
	}
}
