package wavelet

import (
	"fmt"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// TestStripeShares pins the stripe split arithmetic.
func TestStripeShares(t *testing.T) {
	cases := []struct {
		half, stripes int
		want          []int
	}{
		{8, 3, []int{3, 3, 2}},
		{8, 16, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{1, 4, []int{1}},
		{6, 1, []int{6}},
		{7, 2, []int{4, 3}},
	}
	for _, tc := range cases {
		got := StripeShares(tc.half, tc.stripes)
		if len(got) != len(tc.want) {
			t.Fatalf("StripeShares(%d, %d) = %v, want %v", tc.half, tc.stripes, got, tc.want)
		}
		sum := 0
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("StripeShares(%d, %d) = %v, want %v", tc.half, tc.stripes, got, tc.want)
			}
			sum += got[i]
		}
		if sum != tc.half {
			t.Fatalf("StripeShares(%d, %d) sums to %d", tc.half, tc.stripes, sum)
		}
	}
}

// TestExtractStripeWraps checks halo rows wrap modulo the level height —
// the periodic extension reproduced at stripe granularity.
func TestExtractStripeWraps(t *testing.T) {
	im := image.New(4, 2)
	for r := 0; r < 4; r++ {
		im.Set(r, 0, float64(r))
		im.Set(r, 1, float64(r))
	}
	s := Stripe{Start: 2, Rows: 4, Halo: 2}.Extract(im) // rows 2,3,0,1,2,3
	wantRows := []float64{2, 3, 0, 1, 2, 3}
	for m, want := range wantRows {
		if s.At(m, 0) != want {
			t.Fatalf("stripe row %d = %g, want %g", m, s.At(m, 0), want)
		}
	}
}

// validRows runs the valid-row recurrence V_l = ⌊(V_{l-1}-f+2)/2⌋ and
// reports whether every level keeps at least h/2^l valid rows.
func validRows(h, halo, f, levels int) bool {
	v := h + halo
	for l := 1; l <= levels; l++ {
		if v-f+2 < 0 {
			return false
		}
		v = (v - f + 2) / 2
		if v < h>>l {
			return false
		}
	}
	return true
}

// TestPlanStripesHalo checks the plan's geometry: shares tile the image
// in blocks of 2^levels from row 0, and each halo is the smallest
// multiple of 2^levels the valid-row recurrence accepts, capped at the
// rows the image has left.
func TestPlanStripesHalo(t *testing.T) {
	for _, rows := range []int{8, 16, 48, 256, 1024} {
		for levels := 1; levels <= 5 && rows%(1<<levels) == 0; levels++ {
			for _, f := range []int{2, 4, 6, 8, 10, 12, 20} {
				for _, stripes := range []int{1, 2, 3, 5, 64} {
					plan := PlanStripes(rows, levels, f, stripes)
					block := 1 << levels
					start := 0
					for i, s := range plan {
						label := fmt.Sprintf("R=%d L=%d f=%d S=%d stripe %d %+v", rows, levels, f, stripes, i, s)
						if s.Start != start || s.Rows < block || s.Rows%block != 0 || s.Halo%block != 0 {
							t.Fatalf("%s: bad geometry", label)
						}
						want := rows - s.Rows
						for halo := 0; halo < rows-s.Rows; halo += block {
							if validRows(s.Rows, halo, f, levels) {
								want = halo
								break
							}
						}
						if s.Halo != want {
							t.Fatalf("%s: halo %d, want %d", label, s.Halo, want)
						}
						start += s.Rows
					}
					if start != rows || len(plan) != min(stripes, rows/block) {
						t.Fatalf("R=%d L=%d S=%d: %d stripes cover %d rows", rows, levels, stripes, len(plan), start)
					}
					if stripes == 1 && plan[0] != (Stripe{Start: 0, Rows: rows}) {
						t.Fatalf("R=%d L=%d: one stripe is %+v, want the whole image", rows, levels, plan[0])
					}
				}
			}
		}
	}
}

// TestStripePlanBitIdentity is the plan's contract: an L-level
// Decompose of each extracted stripe holds, in every band, the kept
// rows Float64bits-equal to the single-node pyramid, for every catalog
// bank, including stripes whose halo is capped at the image height.
func TestStripePlanBitIdentity(t *testing.T) {
	shapes := []struct{ rows, cols int }{{1024, 256}, {24, 40}, {16, 16}, {48, 8}}
	capped := 0
	for _, name := range filter.Names() {
		bank, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			im := image.Landsat(sh.rows, sh.cols, uint64(sh.rows+sh.cols))
			for levels := 1; levels <= 5; levels++ {
				if CheckDecomposable(sh.rows, sh.cols, levels) != nil {
					continue
				}
				want, err := Decompose(im, bank, filter.Periodic, levels)
				if err != nil {
					t.Fatal(err)
				}
				for _, stripes := range []int{1, 2, 3, 5} {
					got := NewPyramid(sh.rows, sh.cols, bank, filter.Periodic, levels)
					for i, s := range PlanStripes(sh.rows, levels, bank.DecLen(), stripes) {
						label := fmt.Sprintf("%s %dx%d L=%d S=%d stripe %d %+v", name, sh.rows, sh.cols, levels, stripes, i, s)
						if s.Rows+s.Halo == sh.rows && s.Halo > 0 {
							capped++
						}
						sp, err := Decompose(s.Extract(im), bank, filter.Periodic, levels)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						wb := s.Bands(want, s.Start)
						for j, b := range s.Bands(sp, 0) {
							if !image.EqualBits(b, wb[j]) {
								t.Fatalf("%s: band %d not bit-identical", label, j)
							}
						}
						if err := s.Place(got, sp); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					whole := Stripe{Rows: sh.rows}
					wb := whole.Bands(want, 0)
					for j, b := range whole.Bands(got, 0) {
						if !image.EqualBits(b, wb[j]) {
							t.Fatalf("%s %dx%d L=%d S=%d: placed band %d not bit-identical", name, sh.rows, sh.cols, levels, stripes, j)
						}
					}
				}
			}
		}
	}
	if capped == 0 {
		t.Fatal("no stripe had its halo capped at the image height")
	}
}

// TestStripePlaceRejectsWrongShape checks Place refuses a pyramid that
// is not the stripe's, the guard for a misbehaving backend.
func TestStripePlaceRejectsWrongShape(t *testing.T) {
	bank := filter.Daubechies4()
	dst := NewPyramid(32, 16, bank, filter.Periodic, 2)
	s := PlanStripes(32, 2, bank.DecLen(), 2)[0]
	for _, sp := range []*Pyramid{
		NewPyramid(32, 16, bank, filter.Periodic, 1),
		NewPyramid(s.Rows, 16, bank, filter.Periodic, 2),
		NewPyramid(s.Rows+s.Halo, 8, bank, filter.Periodic, 2),
	} {
		if err := s.Place(dst, sp); err == nil {
			t.Errorf("Place accepted a %dx%d depth-%d pyramid for stripe %+v",
				sp.Approx.Rows, sp.Approx.Cols, sp.Depth(), s)
		}
	}
}
