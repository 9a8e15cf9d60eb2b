package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// twoPassCols, twoPassColsChannel, twoPassRows, twoPassRow and
// twoPassGatherAt are test-local copies of the two-pass synthesis
// kernels SynthesizeLevelRange replaced: a column pass over
// PanelWidth-column panels writing L and H into the two halves of the
// output, then an in-place row pass through a one-row scratch. They pin
// the fused sweep to the exact operation order those kernels had.
func twoPassCols(dst, lo, hi *image.Image, bank *filter.Bank, ext filter.Extension, c0, c1 int) {
	for p0 := c0; p0 < c1; p0 += PanelWidth {
		p1 := min(p0+PanelWidth, c1)
		twoPassColsChannel(dst, lo, bank.RecLo, ext, p0, p1, true)
		twoPassColsChannel(dst, hi, bank.RecHi, ext, p0, p1, false)
	}
}

func twoPassColsChannel(dst, src *image.Image, h []float64, ext filter.Extension, p0, p1 int, first bool) {
	n := dst.Rows
	f := len(h)
	z := n
	if first {
		z = 0
	}
	for i := 0; i < src.Rows; i++ {
		s := src.RowSeg(i, p0, p1)
		base := 2 * i
		if base+f <= n {
			for ; z < base+f; z++ {
				zeroSeg(dst.RowSeg(z, p0, p1))
			}
			for k, w := range h {
				axpySeg(dst.RowSeg(base+k, p0, p1), s, w)
			}
			continue
		}
		for ; z < n; z++ {
			zeroSeg(dst.RowSeg(z, p0, p1))
		}
		for k, w := range h {
			if j, ok := ext.Index(base+k, n); ok {
				axpySeg(dst.RowSeg(j, p0, p1), s, w)
			}
		}
	}
	for ; z < n; z++ {
		zeroSeg(dst.RowSeg(z, p0, p1))
	}
}

func twoPassRows(im *image.Image, bank *filter.Bank, ext filter.Extension, r0, r1 int) {
	n := im.Cols
	scratch := make([]float64, n)
	for r := r0; r < r1; r++ {
		row := im.Row(r)
		copy(scratch, row)
		zeroSeg(row)
		twoPassRow(scratch[:n/2], bank.RecLo, ext, row)
		twoPassRow(scratch[n/2:], bank.RecHi, ext, row)
	}
}

func twoPassRow(c, h []float64, ext filter.Extension, out []float64) {
	n := len(out)
	f := len(h)
	last := (n - f) / 2
	if n < f {
		last = -1
	}
	te, to := (f-1)/2, f/2-1
	j := 0
	if f >= 2 && te <= last {
		for ; j < 2*te; j++ {
			twoPassGatherAt(c, h, out, j, last)
		}
		m := te
		for ; m+3 <= last; m += 4 {
			o8 := out[2*m : 2*m+8]
			e0, o0, e1, o1 := o8[0], o8[1], o8[2], o8[3]
			e2, o2, e3, o3 := o8[4], o8[5], o8[6], o8[7]
			t := te
			if te > to {
				w := h[2*t]
				cc := c[m-t : m-t+4]
				e0 += w * cc[0]
				e1 += w * cc[1]
				e2 += w * cc[2]
				e3 += w * cc[3]
				t--
			}
			for ; t >= 0; t-- {
				we, wo := h[2*t], h[2*t+1]
				cc := c[m-t : m-t+4]
				v0, v1, v2, v3 := cc[0], cc[1], cc[2], cc[3]
				e0 += we * v0
				o0 += wo * v0
				e1 += we * v1
				o1 += wo * v1
				e2 += we * v2
				o2 += wo * v2
				e3 += we * v3
				o3 += wo * v3
			}
			o8[0], o8[1], o8[2], o8[3] = e0, o0, e1, o1
			o8[4], o8[5], o8[6], o8[7] = e2, o2, e3, o3
		}
		for ; m <= last; m++ {
			twoPassGatherAt(c, h, out, 2*m, last)
			twoPassGatherAt(c, h, out, 2*m+1, last)
		}
		j = 2*last + 2
	}
	for ; j < n; j++ {
		twoPassGatherAt(c, h, out, j, last)
	}
	for i := last + 1; i < len(c); i++ {
		ci := c[i]
		for k, w := range h {
			if jj, ok := ext.Index(2*i+k, n); ok {
				out[jj] += w * ci
			}
		}
	}
}

func twoPassGatherAt(c, h, out []float64, j, last int) {
	iLo := max(0, (j-len(h)+2)/2)
	iHi := min(j/2, last)
	acc := out[j]
	for i := iLo; i <= iHi; i++ {
		acc += h[j-2*i] * c[i]
	}
	out[j] = acc
}

// signedBand is a random rows×cols band in which every fifth sample is
// an exact +0 or -0, as in a thresholded pyramid.
func signedBand(rows, cols int, seed int64) *image.Image {
	b := randImage(rows, cols, seed)
	for r := 0; r < rows; r++ {
		row := b.Row(r)
		for c := range row {
			if (r*cols+c)%5 == 0 {
				row[c] = math.Copysign(0, float64((r+c)%2)-0.5)
			}
		}
	}
	return b
}

// dirtyRing returns a ring whose slots and taps hold stale values, as a
// pooled ring left by an earlier sweep does.
func dirtyRing(stale []float64) *Ring {
	r := &Ring{}
	buf := r.reserve(4, len(stale)+8, 64)
	for k := range buf {
		buf[k] = math.Inf(-1)
	}
	for k := range r.taps {
		r.taps[k] = stale
	}
	return r
}

// TestSynthesizeLevelRangeBitIdentical checks the fused inverse sweep
// against the two-pass kernels it replaced, over every catalog bank
// (equal and split channel lengths, odd lengths) and a bank of random
// taps for each unrolled merge length, every extension
// including an unknown one, outputs shorter than the filter, and
// splits of the output rows into one range, single rows and three
// uneven ranges, each call on a dirty ring over a stale output.
func TestSynthesizeLevelRangeBitIdentical(t *testing.T) {
	exts := []filter.Extension{filter.Periodic, filter.Symmetric, filter.Zero, filter.Extension(99)}
	// Output rows × cols: 2×2 is shorter than every filter but haar's
	// (no interior source), 128 rows give the odd-length banks long
	// columns, and 10×140 spans several unrolled row blocks.
	shapes := [][2]int{{2, 2}, {2, 4}, {4, 6}, {8, 2}, {14, 10}, {16, 16}, {26, 8}, {128, 4}, {10, 140}}
	// Widths 24–70 give each unrolled merge length (2, 8, 9) an odd and
	// an even interior pair count, exactly one four-pair block (24 for 8
	// and 9, 10 for 2) and every scalar tail of zero to three pairs.
	shapes = append(shapes, [][2]int{{10, 24}, {10, 34}, {10, 36}, {10, 66}, {10, 70}}...)
	var banks []*filter.Bank
	for _, name := range filter.Names() {
		b, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		banks = append(banks, b)
	}
	// rbio4.4, the catalog's one length-9 bank, pads its RecHi with zero
	// taps, and a zero tap hides a wrong source index; banks of random
	// taps, none zero, check every unrolled merge length in full.
	for _, f := range []int{2, 8, 9} {
		taps := randImage(2, f, int64(f))
		banks = append(banks, &filter.Bank{Name: fmt.Sprintf("dense%d", f), RecLo: taps.Row(0), RecHi: taps.Row(1)})
	}
	for _, b := range banks {
		name := b.Name
		for _, ext := range exts {
			for _, sh := range shapes {
				rows, cols := sh[0], sh[1]
				seed := int64(rows*1000 + cols)
				ll := signedBand(rows/2, cols/2, seed)
				lh := signedBand(rows/2, cols/2, seed+1)
				hl := signedBand(rows/2, cols/2, seed+2)
				hh := signedBand(rows/2, cols/2, seed+3)
				want := image.New(rows, cols)
				want.Fill(math.NaN())
				left := want.Sub(0, 0, rows, cols/2)
				right := want.Sub(0, cols/2, rows, cols/2)
				twoPassCols(left, ll, lh, b, ext, 0, cols/2)
				twoPassCols(right, hl, hh, b, ext, 0, cols/2)
				twoPassRows(want, b, ext, 0, rows)
				stale := make([]float64, cols)
				for _, split := range []struct {
					name  string
					edges []int
				}{
					{"whole", []int{0, rows}},
					{"rows", rowEdges(rows)},
					{"uneven", []int{0, 1, 1 + rows/2, rows}},
				} {
					got := image.New(rows, cols)
					got.Fill(math.NaN())
					for k := 1; k < len(split.edges); k++ {
						SynthesizeLevelRange(got, ll, lh, hl, hh, b, ext, split.edges[k-1], split.edges[k], dirtyRing(stale))
					}
					for r := 0; r < rows; r++ {
						requireBits(t, fmt.Sprintf("%s/%s/%dx%d/%s/row%d", name, ext, rows, cols, split.name, r),
							want.Row(r), got.Row(r))
					}
				}
			}
		}
	}
}

// rowEdges splits [0, n) into single rows.
func rowEdges(n int) []int {
	e := make([]int, n+1)
	for k := range e {
		e[k] = k
	}
	return e
}

// TestSynthesizeLevelRangeDropsRowReferences: a ring returns to a pool
// or an arena after the call, so it must not keep pointing at the
// subbands' rows (that would keep a whole pyramid alive).
func TestSynthesizeLevelRangeDropsRowReferences(t *testing.T) {
	b := filter.Daubechies8()
	band := func(seed int64) *image.Image { return randImage(8, 8, seed) }
	ring := &Ring{}
	SynthesizeLevelRange(image.New(16, 16), band(1), band(2), band(3), band(4), b, filter.Periodic, 0, 16, ring)
	for k, x := range ring.taps {
		if x != nil {
			t.Fatalf("ring.taps[%d] still references a source row", k)
		}
	}
}

// pairWidth is the widest row of the pair combine tests.
const pairWidth = 67

// pairCase is one input of the pair combine tests: a term list x of
// pairWidth-sample rows with two weights per term in w and lead marks,
// and each row's own term list for combineCols (row 0 takes every term
// at w0, row 1 the terms x1 without a lead mark at w1).
type pairCase struct {
	name   string
	x, x1  [][]float64
	w      []float64
	lead   uint64
	w0, w1 []float64
}

// pairCases calls fn for every term count 1–maxPairTerms with lead
// marks none, the first, the first and a middle one (the two channels'
// lead terms of an odd bank), all and a random set. Source row t holds
// its one non-finite sample in column t, so the zero in a lead term's
// unused weight would make a NaN in row 1 there. A second pass takes
// every weight's magnitude and sets the last column of every source to
// -0: both rows then sum only -0 products there, which give +0 only
// from a +0 start.
func pairCases(fn func(pairCase)) {
	rng := rand.New(rand.NewSource(26))
	for terms := 1; terms <= maxPairTerms; terms++ {
		all := uint64(1)<<terms - 1
		for _, abs := range []bool{false, true} {
			x := make([][]float64, terms)
			for k := range x {
				x[k] = specialRow(pairWidth, int64(100*terms+k), k)
				if abs {
					x[k][pairWidth-1] = math.Copysign(0, -1)
				}
			}
			wt := specialRow(2*terms, int64(terms))
			for k := range wt {
				if abs {
					wt[k] = math.Abs(wt[k])
				}
			}
			for _, lead := range []uint64{0, 1, 1 | 1<<(terms/2), all, rng.Uint64() & all} {
				pc := pairCase{name: fmt.Sprintf("terms%d/abs%v/lead%#x", terms, abs, lead), x: x, lead: lead}
				pc.w = append([]float64(nil), wt...)
				for k := range x {
					if lead>>k&1 != 0 {
						pc.w[2*k+1] = 0
					} else {
						pc.x1, pc.w1 = append(pc.x1, x[k]), append(pc.w1, pc.w[2*k+1])
					}
					pc.w0 = append(pc.w0, pc.w[2*k])
				}
				fn(pc)
			}
		}
	}
}

// TestCombinePairColsMatchesRows checks the pure-Go pair combine
// against combineCols run on each row's own term list, by Float64bits,
// on every pairCases input and width 0–pairWidth: row 0 takes every
// term, row 1 every term but the lead ones, each summed from +0 in
// ascending t.
func TestCombinePairColsMatchesRows(t *testing.T) {
	pairCases(func(pc pairCase) {
		for n := 0; n <= pairWidth; n++ {
			name := fmt.Sprintf("%s/width%d", pc.name, n)
			want0, want1 := make([]float64, n), make([]float64, n)
			combineCols(want0, pc.x, pc.w0, 0)
			combineCols(want1, pc.x1, pc.w1, 0)
			got0, got1 := make([]float64, n), make([]float64, n)
			for c := range got0 {
				got0[c], got1[c] = math.NaN(), math.NaN()
			}
			combinePairCols(got0, got1, pc.x, pc.w, pc.lead, 0)
			requireBits(t, name+"/0", want0, got0)
			requireBits(t, name+"/1", want1, got1)
		}
	})
}
