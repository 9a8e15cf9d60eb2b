package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// allLiftSchemes returns the scheme of every catalog bank the lifting
// tier can run.
func allLiftSchemes(t testing.TB) []*filter.LiftingScheme {
	t.Helper()
	var out []*filter.LiftingScheme
	for _, name := range filter.Names() {
		b, err := filter.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if sch, err := LiftingScheme(b); err == nil {
			out = append(out, sch)
		}
	}
	if len(out) == 0 {
		t.Fatal("no catalog bank factors into a lifting scheme")
	}
	return out
}

// liftTwoPass runs one level through the two-pass probes: the scatter
// row pass, then the in-place column pass on both subband pairs.
func liftTwoPass(src *image.Image, sch *filter.LiftingScheme) [4]*image.Image {
	r, c := src.Rows/2, src.Cols/2
	var b [4]*image.Image
	for k := range b {
		b[k] = image.New(r, c)
	}
	LiftRowsRange(b[0], b[1], b[2], b[3], src, sch, 0, src.Rows)
	LiftColsRange(b[0], b[1], sch, 0, c)
	LiftColsRange(b[2], b[3], sch, 0, c)
	return b
}

// liftFused runs the level through LiftLevelRange over the ranges cut
// at cuts (ascending, from 0 to src.Rows/2), into NaN-filled bands, all
// calls sharing one ring.
func liftFused(src *image.Image, sch *filter.LiftingScheme, cuts []int, ring *Ring) [4]*image.Image {
	var b [4]*image.Image
	for k := range b {
		b[k] = image.New(src.Rows/2, src.Cols/2)
		b[k].Fill(math.NaN())
	}
	for k := 0; k+1 < len(cuts); k++ {
		LiftLevelRange(b[0], b[1], b[2], b[3], src, sch, cuts[k], cuts[k+1], ring)
	}
	return b
}

// liftBandsDiffer reports the first coefficient where got and want
// differ in their bits.
func liftBandsDiffer(want, got [4]*image.Image) error {
	names := [4]string{"ll", "lh", "hl", "hh"}
	for k := range want {
		for r := 0; r < want[k].Rows; r++ {
			w, g := want[k].Row(r), got[k].Row(r)
			for c := range w {
				if math.Float64bits(w[c]) != math.Float64bits(g[c]) {
					return fmt.Errorf("%s(%d,%d): %g vs %g (bits %#x vs %#x)", names[k], r, c,
						w[c], g[c], math.Float64bits(w[c]), math.Float64bits(g[c]))
				}
			}
		}
	}
	return nil
}

// TestLiftLevelRangeMatchesTwoPass: the fused lifting sweep must be
// Float64bits-equal to LiftRowsRange followed by both LiftColsRange
// calls, for every lifting bank, on levels shorter than a step's
// dependency cone (down to 2×2) and odd half-widths, split at uneven
// boundaries, into NaN-filled bands, and on images of +0 and of -0,
// where the +0-started wrap accumulators decide the sign of zero.
func TestLiftLevelRangeMatchesTwoPass(t *testing.T) {
	shapes := [][2]int{{2, 2}, {2, 6}, {4, 2}, {6, 10}, {8, 14}, {10, 6}, {14, 22}, {16, 2*PanelWidth + 6}, {32, 18}}
	var ring Ring
	for _, sch := range allLiftSchemes(t) {
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			half := rows / 2
			splits := [][]int{{0, half}}
			if half > 1 {
				splits = append(splits, []int{0, 1, half}, []int{0, half - 1, half})
			}
			if half > 4 {
				splits = append(splits, []int{0, half / 3, half/3 + 1, half - 2, half})
			}
			negZero := image.New(rows, cols)
			negZero.Fill(math.Copysign(0, -1))
			images := map[string]*image.Image{
				"rand":    randImage(rows, cols, int64(rows*31+cols)),
				"landsat": image.Landsat(rows, cols, 3),
				"zero":    image.New(rows, cols),
				"-zero":   negZero,
			}
			for name, src := range images {
				want := liftTwoPass(src, sch)
				for _, cuts := range splits {
					got := liftFused(src, sch, cuts, &ring)
					if err := liftBandsDiffer(want, got); err != nil {
						t.Fatalf("%s %dx%d %s cuts %v: %v", sch.Bank, rows, cols, name, cuts, err)
					}
				}
			}
		}
	}
}

// FuzzLiftLevelEquiv drives the fused sweep against the two-pass probes
// over a random shape, bank and three-way split.
func FuzzLiftLevelEquiv(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(0), uint8(1), uint8(2))
	f.Add(int64(2), uint8(1), uint8(1), uint8(9), uint8(0), uint8(0))
	f.Add(int64(3), uint8(13), uint8(5), uint8(14), uint8(6), uint8(11))
	schemes := allLiftSchemes(f)
	f.Fuzz(func(t *testing.T, seed int64, halfRows, halfCols, bank, cut1, cut2 uint8) {
		half, n := 1+int(halfRows%24), 1+int(halfCols%24)
		sch := schemes[int(bank)%len(schemes)]
		a, b := int(cut1)%(half+1), int(cut2)%(half+1)
		if a > b {
			a, b = b, a
		}
		src := randImage(2*half, 2*n, seed)
		if seed%5 == 0 {
			src = image.New(2*half, 2*n)
		}
		want := liftTwoPass(src, sch)
		got := liftFused(src, sch, []int{0, a, b, half}, new(Ring))
		if err := liftBandsDiffer(want, got); err != nil {
			t.Fatalf("%s %dx%d cuts [0 %d %d %d]: %v", sch.Bank, 2*half, 2*n, a, b, half, err)
		}
	})
}

// TestLiftLevelRangeSyntheticSchemes covers step shapes the catalog
// does not produce: consecutive steps on one channel, three- to
// five-tap steps before the last, negative shifts and unit scales. The
// schemes are random and need not invert anything; the fused sweep
// must still match the two-pass kernels bit for bit.
func TestLiftLevelRangeSyntheticSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ring Ring
	for trial := 0; trial < 300; trial++ {
		sch := &filter.LiftingScheme{Bank: fmt.Sprintf("synthetic%d", trial)}
		for k := rng.Intn(6); k >= 0; k-- {
			st := filter.LiftStep{ToS: rng.Intn(2) == 0, Lo: rng.Intn(8) - 4, Taps: make([]float64, 1+rng.Intn(5))}
			for j := range st.Taps {
				st.Taps[j] = rng.NormFloat64()
			}
			sch.Steps = append(sch.Steps, st)
		}
		scale := func() float64 {
			if rng.Intn(3) == 0 {
				return 1
			}
			return rng.NormFloat64()
		}
		sch.SScale, sch.SShift = scale(), rng.Intn(13)-3
		sch.DScale, sch.DShift = scale(), rng.Intn(13)-3
		half, n := 1+rng.Intn(20), 1+rng.Intn(12)
		cuts := []int{0, rng.Intn(half + 1), half}
		if cuts[1] == 0 {
			cuts = cuts[1:]
		}
		src := randImage(2*half, 2*n, int64(trial))
		if trial%7 == 0 {
			src = image.New(2*half, 2*n)
		}
		if err := liftBandsDiffer(liftTwoPass(src, sch), liftFused(src, sch, cuts, &ring)); err != nil {
			t.Fatalf("trial %d %dx%d cuts %v steps %+v S %g/%d D %g/%d: %v", trial, 2*half, 2*n, cuts,
				sch.Steps, sch.SScale, sch.SShift, sch.DScale, sch.DShift, err)
		}
	}
}

// wideLiftShapes are levels whose half-widths 24–31 and 65 make a ring
// row's halves span several four- and eight-sample chunks of the vector
// lifting routine and leave every tail, in the row steps' interiors as
// well as in the column steps and the output rows.
var wideLiftShapes = [][2]int{{12, 48}, {12, 50}, {16, 52}, {14, 54}, {18, 56}, {12, 58}, {16, 60}, {12, 62}, {16, 130}}

// TestLiftLevelRangeWideMatchesTwoPass checks the fused lifting sweep
// against the two-pass kernels at wideLiftShapes for every lifting
// scheme, whole-level and in 3-row ranges, each range on its own dirty
// ring. One +Inf in the source spreads through the steps as ±Inf and
// the default NaN.
func TestLiftLevelRangeWideMatchesTwoPass(t *testing.T) {
	for _, sch := range allLiftSchemes(t) {
		for _, sh := range wideLiftShapes {
			rows, cols := sh[0], sh[1]
			src := randImage(rows, cols, int64(rows*1000+cols))
			src.Row(rows / 3)[cols/5] = math.Inf(1)
			want := liftTwoPass(src, sch)
			for _, chunk := range []int{rows / 2, 3} {
				var got [4]*image.Image
				for k := range got {
					got[k] = image.New(rows/2, cols/2)
					got[k].Fill(math.NaN())
				}
				for i0 := 0; i0 < rows/2; i0 += chunk {
					ring := &Ring{}
					dirty := ring.reserve(8*rows, cols, 1)
					for k := range dirty {
						dirty[k] = math.Inf(-1)
					}
					LiftLevelRange(got[0], got[1], got[2], got[3], src, sch, i0, min(i0+chunk, rows/2), ring)
				}
				if err := liftBandsDiffer(want, got); err != nil {
					t.Fatalf("%s %dx%d chunk %d: %v", sch.Bank, rows, cols, chunk, err)
				}
			}
		}
	}
}
