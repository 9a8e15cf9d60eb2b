package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

func liftBanks(t *testing.T) []*filter.Bank {
	t.Helper()
	var out []*filter.Bank
	for _, name := range []string{"haar", "cdf5/3", "db4", "db8", "bior4.4", "sym6"} {
		b, err := filter.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		out = append(out, b)
	}
	return out
}

// TestLiftRowsRangeMatchesReference: the fused row pass must be
// bit-identical to filter.ApplyLifting1D on every row — blocking and
// scattering reorder work across coefficients, never within one.
func TestLiftRowsRangeMatchesReference(t *testing.T) {
	for _, b := range liftBanks(t) {
		sch, err := LiftingScheme(b)
		if err != nil {
			t.Fatalf("LiftingScheme(%s): %v", b.Name, err)
		}
		for _, sh := range [][2]int{{2, 2}, {4, 6}, {8, 2 * PanelWidth}, {6, PanelWidth + 10}} {
			rows, cols := sh[0], sh[1]
			src := randImage(rows, cols, int64(rows*cols))
			ll := image.New(rows/2, cols/2)
			lh := image.New(rows/2, cols/2)
			hl := image.New(rows/2, cols/2)
			hh := image.New(rows/2, cols/2)
			LiftRowsRange(ll, lh, hl, hh, src, sch, 0, rows)
			s := make([]float64, cols/2)
			d := make([]float64, cols/2)
			for r := 0; r < rows; r++ {
				x := src.Row(r)
				for i := range s {
					s[i], d[i] = x[2*i], x[2*i+1]
				}
				filter.ApplyLifting1D(s, d, sch)
				wantS, wantD := ll.Row(r/2), hl.Row(r/2)
				if r%2 == 1 {
					wantS, wantD = lh.Row(r/2), hh.Row(r/2)
				}
				requireBits(t, b.Name+"/s", s, wantS)
				requireBits(t, b.Name+"/d", d, wantD)
			}
		}
	}
}

// TestLiftRowsRangeWideMatchesReference is
// TestLiftRowsRangeMatchesReference at wideLiftShapes, where the row
// steps run several vector chunks and every tail, for every lifting
// scheme.
func TestLiftRowsRangeWideMatchesReference(t *testing.T) {
	for _, sch := range allLiftSchemes(t) {
		for _, sh := range wideLiftShapes {
			rows, cols := sh[0], sh[1]
			src := randImage(rows, cols, int64(rows*cols))
			var b [4]*image.Image
			for k := range b {
				b[k] = image.New(rows/2, cols/2)
			}
			LiftRowsRange(b[0], b[1], b[2], b[3], src, sch, 0, rows)
			s := make([]float64, cols/2)
			d := make([]float64, cols/2)
			for r := 0; r < rows; r++ {
				x := src.Row(r)
				for i := range s {
					s[i], d[i] = x[2*i], x[2*i+1]
				}
				filter.ApplyLifting1D(s, d, sch)
				label := fmt.Sprintf("%s/%dx%d/row%d", sch.Bank, rows, cols, r)
				// Even rows land in (ll, hl), odd rows in (lh, hh).
				requireBits(t, label+"/s", s, b[r%2].Row(r/2))
				requireBits(t, label+"/d", d, b[2+r%2].Row(r/2))
			}
		}
	}
}

// TestLiftColsRangeMatchesReference: the panel-blocked in-place column
// pass must be bit-identical to ApplyLifting1D down every column.
func TestLiftColsRangeMatchesReference(t *testing.T) {
	for _, b := range liftBanks(t) {
		sch, err := LiftingScheme(b)
		if err != nil {
			t.Fatalf("LiftingScheme(%s): %v", b.Name, err)
		}
		for _, sh := range [][2]int{{1, 3}, {2, 2}, {5, PanelWidth + 3}, {16, 2*PanelWidth + 1}} {
			half, cols := sh[0], sh[1]
			s := randImage(half, cols, int64(half*7+cols))
			d := randImage(half, cols, int64(half*13+cols))
			wantS := s.Clone()
			wantD := d.Clone()
			LiftColsRange(s, d, sch, 0, cols)
			sc := make([]float64, half)
			dc := make([]float64, half)
			for c := 0; c < cols; c++ {
				sc = wantS.Col(c, sc)
				dc = wantD.Col(c, dc)
				filter.ApplyLifting1D(sc, dc, sch)
				for i := 0; i < half; i++ {
					if math.Float64bits(sc[i]) != math.Float64bits(s.At(i, c)) {
						t.Fatalf("%s %dx%d s(%d,%d): %g vs %g", b.Name, half, cols, i, c, sc[i], s.At(i, c))
					}
					if math.Float64bits(dc[i]) != math.Float64bits(d.At(i, c)) {
						t.Fatalf("%s %dx%d d(%d,%d): %g vs %g", b.Name, half, cols, i, c, dc[i], d.At(i, c))
					}
				}
			}
		}
	}
}

// TestLiftRangesDisjoint: split row and column ranges must reproduce the
// full-range results exactly — the property core.ParallelDecomposeTol
// relies on for lock-free fan-out.
func TestLiftRangesDisjoint(t *testing.T) {
	b := filter.Daubechies8()
	sch, err := LiftingScheme(b)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := 16, 3*PanelWidth+6
	src := randImage(rows, cols, 71)
	full := [4]*image.Image{}
	split := [4]*image.Image{}
	for i := range full {
		full[i] = image.New(rows/2, cols/2)
		split[i] = image.New(rows/2, cols/2)
	}
	LiftRowsRange(full[0], full[1], full[2], full[3], src, sch, 0, rows)
	// Uneven, odd-boundary row split: every destination row is written
	// exactly once regardless of parity alignment.
	LiftRowsRange(split[0], split[1], split[2], split[3], src, sch, 0, 5)
	LiftRowsRange(split[0], split[1], split[2], split[3], src, sch, 5, 11)
	LiftRowsRange(split[0], split[1], split[2], split[3], src, sch, 11, rows)
	for i := range full {
		for r := 0; r < rows/2; r++ {
			requireBits(t, "rows-split", full[i].Row(r), split[i].Row(r))
		}
	}
	// Column split at non-panel boundaries, applied after copying the
	// row-pass outputs (the column pass is in place).
	fullS, fullD := full[0].Clone(), full[1].Clone()
	splitS, splitD := full[0].Clone(), full[1].Clone()
	LiftColsRange(fullS, fullD, sch, 0, cols/2)
	LiftColsRange(splitS, splitD, sch, 0, 17)
	LiftColsRange(splitS, splitD, sch, 17, PanelWidth+1)
	LiftColsRange(splitS, splitD, sch, PanelWidth+1, cols/2)
	for r := 0; r < rows/2; r++ {
		requireBits(t, "cols-split-s", fullS.Row(r), splitS.Row(r))
		requireBits(t, "cols-split-d", fullD.Row(r), splitD.Row(r))
	}
}

// TestLiftStepsInPlaceOnDirtyArena: like the convolution pass, the
// lifting sweeps must fully overwrite destination garbage (arenas hand
// out dirty buffers by design).
func TestLiftStepsInPlaceOnDirtyArena(t *testing.T) {
	b, err := filter.ByName("cdf5/3")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := LiftingScheme(b)
	if err != nil {
		t.Fatal(err)
	}
	src := randImage(8, 16, 9)
	clean := [4]*image.Image{}
	dirty := [4]*image.Image{}
	for i := range clean {
		clean[i] = image.New(4, 8)
		dirty[i] = image.New(4, 8)
		dirty[i].Fill(math.NaN())
	}
	LiftRowsRange(clean[0], clean[1], clean[2], clean[3], src, sch, 0, 8)
	LiftRowsRange(dirty[0], dirty[1], dirty[2], dirty[3], src, sch, 0, 8)
	for i := range clean {
		for r := 0; r < 4; r++ {
			requireBits(t, "dirty", clean[i].Row(r), dirty[i].Row(r))
		}
	}
}

// TestLiftRowStepFuzzesWrap drives the step helpers across offsets that
// wrap both ends, against a direct modular evaluation.
func TestLiftRowStepFuzzesWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		half := 1 + rng.Intn(12)
		f := 1 + rng.Intn(4)
		st := filter.LiftStep{Lo: rng.Intn(9) - 4, Taps: make([]float64, f)}
		for j := range st.Taps {
			st.Taps[j] = rng.NormFloat64()
		}
		src := make([]float64, half)
		dst := make([]float64, half)
		want := make([]float64, half)
		for i := range src {
			src[i] = rng.NormFloat64()
			dst[i] = rng.NormFloat64()
			want[i] = dst[i]
		}
		for i := 0; i < half; i++ {
			var acc float64
			for j, tp := range st.Taps {
				idx := (i + st.Lo + j) % half
				if idx < 0 {
					idx += half
				}
				acc += float64(tp * src[idx])
			}
			want[i] += acc
		}
		liftRowStep(dst, src, &st, false)
		requireBits(t, "wrap", want, dst)
	}
}
