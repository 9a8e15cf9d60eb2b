package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

func randImage(rows, cols int, seed int64) *image.Image {
	rng := rand.New(rand.NewSource(seed))
	im := image.New(rows, cols)
	for r := 0; r < rows; r++ {
		row := im.Row(r)
		for c := range row {
			row[c] = rng.NormFloat64() * 10
		}
	}
	return im
}

// refAnalyzeStep is a local copy of the reference convolve-and-decimate
// semantics (wavelet.AnalyzeStep), kept here so the kernel package can
// assert bit-identity without importing its own caller.
func refAnalyzeStep(x, h []float64, ext filter.Extension, dst []float64) {
	n := len(x)
	interior := (n - len(h)) / 2
	if n < len(h) {
		interior = -1 // truncating division mishandles n-len(h) = -1
	}
	for i := 0; i <= interior; i++ {
		var acc float64
		for k, hk := range h {
			acc += hk * x[2*i+k]
		}
		dst[i] = acc
	}
	for i := interior + 1; i < n/2; i++ {
		var acc float64
		for k, hk := range h {
			if j, ok := ext.Index(2*i+k, n); ok {
				acc += hk * x[j]
			}
		}
		dst[i] = acc
	}
}

func requireBits(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d]: %g vs %g (bits %#x vs %#x)", label, i,
				want[i], got[i], math.Float64bits(want[i]), math.Float64bits(got[i]))
		}
	}
}

// TestRowKernelsBitIdentical drives the row filter (the tap-view
// combine under Periodic, pickRow's kernel otherwise) against the
// reference semantics over lengths that hit the interior-only,
// wrapped-tail, and shorter-than-filter regimes.
func TestRowKernelsBitIdentical(t *testing.T) {
	banks := []*filter.Bank{filter.Haar(), filter.Daubechies4(), filter.Daubechies6(), filter.Daubechies8()}
	exts := []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero}
	rng := rand.New(rand.NewSource(99))
	for _, b := range banks {
		for _, ext := range exts {
			for _, n := range []int{0, 2, 4, 6, 8, 10, 16, 64, 126} {
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				wantLo := make([]float64, n/2)
				wantHi := make([]float64, n/2)
				refAnalyzeStep(x, b.DecLo, ext, wantLo)
				refAnalyzeStep(x, b.DecHi, ext, wantHi)
				gotLo := make([]float64, n/2)
				gotHi := make([]float64, n/2)
				AnalyzeRow(x, b, ext, gotLo, gotHi)
				label := b.Name + "/" + ext.String()
				requireBits(t, label+"/lo", wantLo, gotLo)
				requireBits(t, label+"/hi", wantHi, gotHi)
			}
		}
	}
}

// TestColsRangeBitIdentical checks the column pass against the
// reference per-column convolution, over shapes that exercise partial
// panels (cols not a multiple of PanelWidth) and short columns, column
// segments [c0, c1) that start past column 0 and leave every tail of
// the eight-column vector combine, and strided Sub views (Stride ≠
// Cols) for the source and both destinations, the Walsh–Hadamard
// cascade's call shape. Columns outside the segment keep their NaN.
func TestColsRangeBitIdentical(t *testing.T) {
	banks := []*filter.Bank{filter.Haar(), filter.Daubechies8()}
	exts := []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero}
	type colsCase struct{ rows, cols, c0, c1, pad int }
	var cases []colsCase
	for _, sh := range [][2]int{{2, 2}, {4, 3}, {8, PanelWidth - 1}, {16, PanelWidth + 5}, {6, 2*PanelWidth + 7}} {
		cases = append(cases, colsCase{sh[0], sh[1], 0, sh[1], 0})
	}
	for tail := 1; tail <= 7; tail++ {
		cases = append(cases, colsCase{10, 40, tail, 2*tail + 8, 0})
	}
	cases = append(cases, colsCase{16, 24, 0, 24, 5}, colsCase{8, 36, 3, 30, 7}, colsCase{4, 20, 9, 10, 1})
	for _, b := range banks {
		for _, ext := range exts {
			for _, tc := range cases {
				rows, cols, pad := tc.rows, tc.cols, tc.pad
				src := randImage(rows+2*pad, cols+2*pad, int64(rows*1000+cols)).Sub(pad, pad, rows, cols)
				bands := [2]*image.Image{}
				for k := range bands {
					bands[k] = image.New(rows/2+2*pad, cols+2*pad)
					bands[k].Fill(math.NaN())
					bands[k] = bands[k].Sub(pad, pad, rows/2, cols)
				}
				lo, hi := bands[0], bands[1]
				AnalyzeColsRange(lo, hi, src, b, ext, tc.c0, tc.c1)
				col := make([]float64, rows)
				wantLo := make([]float64, rows/2)
				wantHi := make([]float64, rows/2)
				for c := 0; c < cols; c++ {
					col = src.Col(c, col)
					refAnalyzeStep(col, b.DecLo, ext, wantLo)
					refAnalyzeStep(col, b.DecHi, ext, wantHi)
					for i := range wantLo {
						wl, wh := wantLo[i], wantHi[i]
						if c < tc.c0 || c >= tc.c1 {
							wl, wh = math.NaN(), math.NaN()
						}
						if math.Float64bits(wl) != math.Float64bits(lo.At(i, c)) {
							t.Fatalf("%s/%s %+v lo(%d,%d): %g vs %g", b.Name, ext, tc, i, c, wl, lo.At(i, c))
						}
						if math.Float64bits(wh) != math.Float64bits(hi.At(i, c)) {
							t.Fatalf("%s/%s %+v hi(%d,%d): %g vs %g", b.Name, ext, tc, i, c, wh, hi.At(i, c))
						}
					}
				}
			}
		}
	}
}

// TestColsRangeOverwritesStale verifies the destination rows are used
// as accumulators safely: pre-existing garbage in dst must not leak
// into the results (the arena hands out dirty buffers by design).
func TestColsRangeOverwritesStale(t *testing.T) {
	src := randImage(8, 16, 5)
	b := filter.Daubechies4()
	clean := image.New(4, 16)
	cleanHi := image.New(4, 16)
	AnalyzeColsRange(clean, cleanHi, src, b, filter.Periodic, 0, 16)
	dirty := image.New(4, 16)
	dirtyHi := image.New(4, 16)
	dirty.Fill(math.NaN())
	dirtyHi.Fill(math.Inf(1))
	AnalyzeColsRange(dirty, dirtyHi, src, b, filter.Periodic, 0, 16)
	for r := 0; r < 4; r++ {
		requireBits(t, "lo", clean.Row(r), dirty.Row(r))
		requireBits(t, "hi", cleanHi.Row(r), dirtyHi.Row(r))
	}
}

// TestRowsRangeSubrange checks that range-restricted row filtering fills
// exactly the requested rows, enabling disjoint parallel writes.
func TestRowsRangeSubrange(t *testing.T) {
	src := randImage(8, 16, 6)
	b := filter.Daubechies4()
	full := image.New(8, 8)
	fullHi := image.New(8, 8)
	AnalyzeRowsRange(full, fullHi, src, b, filter.Periodic, 0, 8)
	part := image.New(8, 8)
	partHi := image.New(8, 8)
	AnalyzeRowsRange(part, partHi, src, b, filter.Periodic, 3, 6)
	for r := 3; r < 6; r++ {
		requireBits(t, "lo", full.Row(r), part.Row(r))
	}
	for _, r := range []int{0, 2, 6, 7} {
		for _, v := range part.Row(r) {
			if v != 0 {
				t.Fatalf("row %d outside [3,6) was written", r)
			}
		}
	}
}

// TestArenaReuseAndGrowth: the arena serves shrinking per-level sizes
// from one allocation and grows monotonically for larger images; images
// it returns have tight strides and the requested shape.
func TestArenaReuseAndGrowth(t *testing.T) {
	ar := GetArena()
	defer PutArena(ar)
	l1 := ar.LL(0, 64, 32)
	if l1.Rows != 64 || l1.Cols != 32 || l1.Stride != 32 {
		t.Fatalf("LL shape %dx%d stride %d", l1.Rows, l1.Cols, l1.Stride)
	}
	p1 := &l1.Pix[0]
	// A smaller request must reuse the same backing.
	if l2 := ar.LL(0, 32, 16); &l2.Pix[0] != p1 {
		t.Error("smaller LL did not reuse backing")
	}
	// A larger request grows.
	if l3 := ar.LL(0, 128, 64); len(l3.Pix) != 128*64 {
		t.Error("grown LL has wrong size")
	}
	// Ping-pong slots are distinct buffers.
	a := ar.LL(0, 16, 16)
	b := ar.LL(1, 16, 16)
	if &a.Pix[0] == &b.Pix[0] {
		t.Error("LL ping-pong slots share backing")
	}
	// The ring keeps its slots when a smaller level follows.
	r := ar.Ring()
	buf := r.reserve(16, 64, 16)
	if got := r.reserve(12, 32, 8); &got[0] != &buf[0] {
		t.Error("smaller ring reservation did not reuse backing")
	}
}

// TestAnalyzeLevelRangeBitIdentical checks the fused sweep against the
// two-pass kernels it replaces, over every catalog bank (equal and
// split channel lengths, odd lengths), every extension, shapes whose
// level is shorter than the filter, and every split of the output rows
// into ranges, each range on its own dirty ring.
func TestAnalyzeLevelRangeBitIdentical(t *testing.T) {
	exts := []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero, filter.Extension(99)}
	shapes := [][2]int{{2, 4}, {4, 6}, {8, 2}, {14, 10}, {16, 16}, {26, 8}, {128, 4}}
	for _, name := range filter.Names() {
		b, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range exts {
			for _, sh := range shapes {
				rows, cols := sh[0], sh[1]
				src := randImage(rows, cols, int64(rows*100+cols))
				l, h := image.New(rows, cols/2), image.New(rows, cols/2)
				AnalyzeRowsRange(l, h, src, b, ext, 0, rows)
				want := [4]*image.Image{}
				for k := range want {
					want[k] = image.New(rows/2, cols/2)
				}
				AnalyzeColsRange(want[0], want[1], l, b, ext, 0, cols/2)
				AnalyzeColsRange(want[2], want[3], h, b, ext, 0, cols/2)
				for _, chunk := range []int{rows / 2, 3, 1} {
					got := [4]*image.Image{}
					for k := range got {
						got[k] = image.New(rows/2, cols/2)
						got[k].Fill(math.NaN())
					}
					for i0 := 0; i0 < rows/2; i0 += chunk {
						ring := &Ring{}
						dirty := ring.reserve(3*len(b.DecHi)+3*len(b.DecLo), cols, 1)
						for k := range dirty {
							dirty[k] = math.Inf(-1)
						}
						AnalyzeLevelRange(got[0], got[1], got[2], got[3], src, b, ext, i0, min(i0+chunk, rows/2), ring)
					}
					for k := range want {
						for r := 0; r < rows/2; r++ {
							requireBits(t, fmt.Sprintf("%s/%s/%dx%d/chunk%d/band%d/row%d", name, ext, rows, cols, chunk, k, r),
								want[k].Row(r), got[k].Row(r))
						}
					}
				}
			}
		}
	}
}
