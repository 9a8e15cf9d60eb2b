package kernel

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// AnalyzeLevelRange computes output rows [i0, i1) of all four subbands
// of one analysis level of src (each src.Rows/2 × src.Cols/2) in one
// sweep: the fused form of AnalyzeRowsRange followed by
// AnalyzeColsRange, without the full-size L/H intermediate between
// them.
//
// Each source row the range needs is row-filtered exactly once, by the
// same kernel AnalyzeRowsRange would pick, into a slot of ring. The
// slots hold a sliding window of the last F filtered L/H rows (F the
// longer analysis channel), indexed by row mod F, plus, apart from the
// window, the rows that border outputs reach by wrapping or reflecting
// below it. Every output row is then column-filtered from the slots:
// each coefficient starts at zero and adds h[k]·row[2i+k] in ascending
// k, with the reference interior/border split, so the result is
// bit-identical to the two-pass kernels. ring is resized as needed and
// must not be shared by concurrent calls.
//
//wavelint:hotpath
func AnalyzeLevelRange(ll, lh, hl, hh, src *image.Image, bank *filter.Bank, ext filter.Extension, i0, i1 int, ring *Ring) {
	rows := src.Rows
	lo, hi := bank.DecLo, bank.DecHi
	f := max(len(lo), len(hi))
	w := window{
		src: src, bank: bank, ext: ext,
		row:  pickRow(bank, ext, src.Cols),
		n:    src.Cols / 2,
		rows: rows, f: f,
		start: 2 * i0,
	}
	w.extras(i0, i1, len(lo))
	w.extras(i0, i1, len(hi))
	w.buf = ring.reserve(f+w.eHi-w.eLo, w.n, 2*f)
	for j := w.eLo; j < w.eHi; j++ {
		w.filter(j, f+j-w.eLo)
	}
	tl, th := ring.taps[:f], ring.taps[f:]
	next := w.start
	for i := i0; i < i1; i++ {
		w.hi = min(2*i+f, rows)
		for ; next < w.hi; next++ {
			w.filter(next, next%f)
		}
		w.lo = max(w.start, w.hi-f)
		if len(lo) == len(hi) {
			full := w.gather(i, f, tl, th)
			combinePair(ll.Row(i), lh.Row(i), tl[:f], lo, hi, full)
			combinePair(hl.Row(i), hh.Row(i), th[:f], lo, hi, full)
			continue
		}
		// Different channel lengths (biorthogonal banks): each channel
		// keeps the interior/border split of its own filter length.
		w.gather(i, len(lo), tl, th)
		combineChannel(ll.Row(i), tl[:len(lo)], lo)
		combineChannel(hl.Row(i), th[:len(lo)], lo)
		w.gather(i, len(hi), tl, th)
		combineChannel(lh.Row(i), tl[:len(hi)], hi)
		combineChannel(hh.Row(i), th[:len(hi)], hi)
	}
}

// window is the state of one AnalyzeLevelRange call. Slots [0, f) hold
// the sliding window: filtered rows [lo, hi) live in slot row mod f.
// Slots [f, f+eHi-eLo) hold the filtered rows [eLo, eHi) that border
// outputs reach below the window. Each slot is n L samples followed by
// n H samples.
type window struct {
	src      *image.Image
	bank     *filter.Bank
	ext      filter.Extension
	row      rowFunc
	buf      []float64
	n        int // samples per filtered row (src.Cols/2)
	rows     int // source rows
	f        int // longer analysis channel
	start    int // first window row of the range
	lo, hi   int // window of the current output row
	eLo, eHi int // rows kept apart from the window
}

// extras widens [eLo, eHi) to every row that a border output in
// [i0, i1) reaches, under a length-f channel, by wrapping or reflecting
// below the window it will have. Border outputs (2i+f > rows) are a
// suffix of the level, and each sees the window
// [max(start, rows-w.f), rows).
//
//wavelint:hotpath
func (w *window) extras(i0, i1, f int) {
	floor := max(w.start, w.rows-w.f)
	for i := i1 - 1; i >= i0 && 2*i+f > w.rows; i-- {
		for k := 0; k < f; k++ {
			j, ok := w.ext.Index(2*i+k, w.rows)
			if !ok || j >= floor {
				continue
			}
			if w.eHi == w.eLo {
				w.eLo, w.eHi = j, j+1
			}
			w.eLo, w.eHi = min(w.eLo, j), max(w.eHi, j+1)
		}
	}
}

// slot returns the L and H halves of slot s.
//
//wavelint:hotpath
func (w *window) slot(s int) (l, h []float64) {
	o := 2 * s * w.n
	return w.buf[o : o+w.n], w.buf[o+w.n : o+2*w.n]
}

// filter row-filters source row j into slot s.
//
//wavelint:hotpath
func (w *window) filter(j, s int) {
	l, h := w.slot(s)
	w.row(w.src.Row(j), w.bank.DecLo, w.bank.DecHi, l, h, w.ext)
}

// at returns the filtered L and H rows of source row j, from the window
// when it holds j and from the extra slots otherwise.
//
//wavelint:hotpath
func (w *window) at(j int) (l, h []float64) {
	if j >= w.lo && j < w.hi {
		return w.slot(j % w.f)
	}
	return w.slot(w.f + j - w.eLo)
}

// gather points tl[k] and th[k] at the filtered L and H rows under tap
// k of output row i for a length-f channel, with the reference
// interior/border split: interior supports index the window directly,
// border taps resolve through ext.Index and are nil when skipped. It
// reports whether every tap is present.
//
//wavelint:hotpath
func (w *window) gather(i, f int, tl, th [][]float64) bool {
	base := 2 * i
	if base+f <= w.rows {
		for k := 0; k < f; k++ {
			tl[k], th[k] = w.slot((base + k) % w.f)
		}
		return true
	}
	full := true
	for k := 0; k < f; k++ {
		j, ok := w.ext.Index(base+k, w.rows)
		if !ok {
			tl[k], th[k] = nil, nil
			full = false
			continue
		}
		tl[k], th[k] = w.at(j)
	}
	return full
}

// combinePair column-filters one output row of both channels from the
// tap rows t: dLo[c] = Σ lo[k]·t[k][c] and dHi[c] = Σ hi[k]·t[k][c],
// each started at zero and summed in ascending k. Nil taps are skipped.
// With every tap present the hot lengths run unrolled, with both sums
// held in registers.
//
//wavelint:hotpath
func combinePair(dLo, dHi []float64, t [][]float64, lo, hi []float64, full bool) {
	if full {
		switch len(t) {
		case 2:
			combine2(dLo, dHi, t, lo, hi)
			return
		case 4:
			combine4(dLo, dHi, t, lo, hi)
			return
		case 6:
			combine6(dLo, dHi, t, lo, hi)
			return
		case 8:
			combine8(dLo, dHi, t, lo, hi)
			return
		}
	}
	zeroSeg(dLo)
	zeroSeg(dHi)
	dHi = dHi[:len(dLo)]
	for k, x := range t {
		if x == nil {
			continue
		}
		wl, wh := lo[k], hi[k]
		x = x[:len(dLo)]
		for c, v := range x {
			dLo[c] += wl * v
			dHi[c] += wh * v
		}
	}
}

// combineChannel is combinePair for one channel, used when the two
// analysis channels differ in length.
//
//wavelint:hotpath
func combineChannel(d []float64, t [][]float64, h []float64) {
	zeroSeg(d)
	for k, x := range t {
		if x != nil {
			axpySeg(d, x[:len(d)], h[k])
		}
	}
}

//wavelint:hotpath
func combine2(dLo, dHi []float64, t [][]float64, lo, hi []float64) {
	n := len(dLo)
	dHi = dHi[:n]
	x0, x1 := t[0][:n], t[1][:n]
	l0, l1 := lo[0], lo[1]
	h0, h1 := hi[0], hi[1]
	for c := range dLo {
		v0, v1 := x0[c], x1[c]
		var a float64
		a += l0 * v0
		a += l1 * v1
		dLo[c] = a
		var d float64
		d += h0 * v0
		d += h1 * v1
		dHi[c] = d
	}
}

//wavelint:hotpath
func combine4(dLo, dHi []float64, t [][]float64, lo, hi []float64) {
	n := len(dLo)
	dHi = dHi[:n]
	x0, x1, x2, x3 := t[0][:n], t[1][:n], t[2][:n], t[3][:n]
	l0, l1, l2, l3 := lo[0], lo[1], lo[2], lo[3]
	h0, h1, h2, h3 := hi[0], hi[1], hi[2], hi[3]
	for c := range dLo {
		v0, v1, v2, v3 := x0[c], x1[c], x2[c], x3[c]
		var a float64
		a += l0 * v0
		a += l1 * v1
		a += l2 * v2
		a += l3 * v3
		dLo[c] = a
		var d float64
		d += h0 * v0
		d += h1 * v1
		d += h2 * v2
		d += h3 * v3
		dHi[c] = d
	}
}

//wavelint:hotpath
func combine6(dLo, dHi []float64, t [][]float64, lo, hi []float64) {
	n := len(dLo)
	dHi = dHi[:n]
	x0, x1, x2 := t[0][:n], t[1][:n], t[2][:n]
	x3, x4, x5 := t[3][:n], t[4][:n], t[5][:n]
	l0, l1, l2, l3, l4, l5 := lo[0], lo[1], lo[2], lo[3], lo[4], lo[5]
	h0, h1, h2, h3, h4, h5 := hi[0], hi[1], hi[2], hi[3], hi[4], hi[5]
	for c := range dLo {
		v0, v1, v2 := x0[c], x1[c], x2[c]
		v3, v4, v5 := x3[c], x4[c], x5[c]
		var a float64
		a += l0 * v0
		a += l1 * v1
		a += l2 * v2
		a += l3 * v3
		a += l4 * v4
		a += l5 * v5
		dLo[c] = a
		var d float64
		d += h0 * v0
		d += h1 * v1
		d += h2 * v2
		d += h3 * v3
		d += h4 * v4
		d += h5 * v5
		dHi[c] = d
	}
}

//wavelint:hotpath
func combine8(dLo, dHi []float64, t [][]float64, lo, hi []float64) {
	n := len(dLo)
	dHi = dHi[:n]
	x0, x1, x2, x3 := t[0][:n], t[1][:n], t[2][:n], t[3][:n]
	x4, x5, x6, x7 := t[4][:n], t[5][:n], t[6][:n], t[7][:n]
	l0, l1, l2, l3, l4, l5, l6, l7 := lo[0], lo[1], lo[2], lo[3], lo[4], lo[5], lo[6], lo[7]
	h0, h1, h2, h3, h4, h5, h6, h7 := hi[0], hi[1], hi[2], hi[3], hi[4], hi[5], hi[6], hi[7]
	for c := range dLo {
		v0, v1, v2, v3 := x0[c], x1[c], x2[c], x3[c]
		v4, v5, v6, v7 := x4[c], x5[c], x6[c], x7[c]
		var a float64
		a += l0 * v0
		a += l1 * v1
		a += l2 * v2
		a += l3 * v3
		a += l4 * v4
		a += l5 * v5
		a += l6 * v6
		a += l7 * v7
		dLo[c] = a
		var d float64
		d += h0 * v0
		d += h1 * v1
		d += h2 * v2
		d += h3 * v3
		d += h4 * v4
		d += h5 * v5
		d += h6 * v6
		d += h7 * v7
		dHi[c] = d
	}
}
