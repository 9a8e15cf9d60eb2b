package kernel

import (
	"fmt"
	"math"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// specialRow is a random row of n samples in which every third sample
// is ±0 or a subnormal, and the samples at the positions in bad are, in
// turn, +Inf, NaN and -Inf: one NaN per row.
//
// Where two NaNs meet in one sum, x86 keeps the first operand's
// payload, and the Go compiler orders the operands of a commutative add
// as its register allocation falls, so the tests give every sum at most
// one non-finite source (an Inf times a zero tap makes the one NaN).
func specialRow(n int, seed int64, bad ...int) []float64 {
	row := randImage(1, n, seed).Row(0)
	tiny := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310}
	for c := range row {
		if (c+int(seed))%3 == 0 {
			row[c] = tiny[(c/3+int(seed))%len(tiny)]
		}
	}
	huge := []float64{math.Inf(1), math.NaN(), math.Inf(-1)}
	for k, c := range bad {
		if c < n {
			row[c] = huge[k%len(huge)]
		}
	}
	return row
}

// TestAnalyzeRowVectorMatchesGeneric compares the fused sweep's
// periodic row filter (deinterleave, tap views, combineTerms) with
// rowsGeneric and rowsSplit by Float64bits, for every DecLo/DecHi
// length pair in 1–18 and every even width from the longer length f to
// 80. Each row holds a NaN and, where they fit, +Inf and -Inf, f
// samples apart around the row, so no output's f cyclically consecutive
// samples hold two of them.
func TestAnalyzeRowVectorMatchesGeneric(t *testing.T) {
	huge := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for fl := 1; fl <= 18; fl++ {
		for fh := 1; fh <= 18; fh++ {
			b := &filter.Bank{DecLo: specialRow(fl, int64(fl)), DecHi: specialRow(fh, int64(50+fh))}
			ref := rowsGeneric
			if fl != fh {
				ref = rowsSplit
			}
			f := max(fl, fh)
			for cols := f + f%2; cols <= 80; cols += 2 {
				seed := int64(100*f + cols)
				src := image.New(1, cols)
				x := src.Row(0)
				copy(x, specialRow(cols, seed))
				for k := 0; k < cols/f && k < len(huge); k++ {
					x[(int(seed)+k*f)%cols] = huge[k]
				}
				n := cols / 2
				want := make([]float64, cols)
				ref(x, b.DecLo, b.DecHi, want[:n], want[n:], filter.Periodic)
				w := window{src: src, bank: b, ext: filter.Periodic, n: n, rows: 1, f: f}
				ring := &Ring{}
				for k, dirty := 0, ring.reserve(f+1, n+f, 1); k < len(dirty); k++ {
					dirty[k] = math.Inf(-1)
				}
				w.reserve(ring)
				if w.row != nil {
					t.Fatalf("lo%d/hi%d/cols%d: the sweep picked a row kernel", fl, fh, cols)
				}
				w.filter(0, 0)
				l, h := w.slot(0)
				name := fmt.Sprintf("lo%d/hi%d/cols%d", fl, fh, cols)
				requireBits(t, name+"/lo", want[:n], l)
				requireBits(t, name+"/hi", want[n:], h)
			}
		}
	}
}

// TestAnalyzeLevelRangeWideBitIdentical checks the fused sweep against
// the two-pass kernels on levels wide enough that a band spans several
// eight-column chunks of the vector combine and leaves every kind of
// tail: every catalog bank, every extension, whole-level and 3-row
// ranges, each on its own dirty ring.
func TestAnalyzeLevelRangeWideBitIdentical(t *testing.T) {
	exts := []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero, filter.Extension(99)}
	shapes := [][2]int{{12, 50}, {16, 130}, {18, 36}, {10, 2*PanelWidth + 14}}
	for _, name := range filter.Names() {
		b, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range exts {
			for _, sh := range shapes {
				rows, cols := sh[0], sh[1]
				src := randImage(rows, cols, int64(rows*1000+cols))
				src.Row(rows / 3)[cols/5] = math.Inf(1)
				l, h := image.New(rows, cols/2), image.New(rows, cols/2)
				AnalyzeRowsRange(l, h, src, b, ext, 0, rows)
				var want, got [4]*image.Image
				for k := range want {
					want[k] = image.New(rows/2, cols/2)
					got[k] = image.New(rows/2, cols/2)
				}
				AnalyzeColsRange(want[0], want[1], l, b, ext, 0, cols/2)
				AnalyzeColsRange(want[2], want[3], h, b, ext, 0, cols/2)
				for _, chunk := range []int{rows / 2, 3} {
					for k := range got {
						got[k].Fill(math.NaN())
					}
					for i0 := 0; i0 < rows/2; i0 += chunk {
						ring := &Ring{}
						dirty := ring.reserve(4*len(b.DecHi)+4*len(b.DecLo), cols, 1)
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
