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
// Each source row the range needs is row-filtered exactly once into a
// slot of ring. The slots hold a sliding window of the last F filtered
// L/H rows (F the longer analysis channel), indexed by row mod F, plus,
// apart from the window, the rows that border outputs reach by wrapping
// or reflecting below it. Every output row is then column-filtered from
// the slots by combineTerms: each coefficient starts at +0 and adds
// h[k]·row[2i+k] in ascending k, with the reference interior/border
// split, so the result is bit-identical to the two-pass kernels. ring
// is resized as needed and must not be shared by concurrent calls.
//
// The row filter, window.filterRow, is AnalyzeRowsRange's: under
// Periodic with src.Cols >= F it runs on combineTerms too.
//
//wavelint:hotpath
func AnalyzeLevelRange(ll, lh, hl, hh, src *image.Image, bank *filter.Bank, ext filter.Extension, i0, i1 int, ring *Ring) {
	rows := src.Rows
	lo, hi := bank.DecLo, bank.DecHi
	f := max(len(lo), len(hi))
	w := window{
		src: src, bank: bank, ext: ext,
		n:    src.Cols / 2,
		rows: rows, f: f,
		start: 2 * i0,
	}
	w.extras(i0, i1, len(lo))
	w.extras(i0, i1, len(hi))
	w.reserve(ring)
	for j := w.eLo; j < w.eHi; j++ {
		w.filter(j, f+j-w.eLo)
	}
	tl, th := ring.taps[:f], ring.taps[f:2*f]
	next := w.start
	for i := i0; i < i1; i++ {
		w.hi = min(2*i+f, rows)
		for ; next < w.hi; next++ {
			w.filter(next, next%f)
		}
		w.lo = max(w.start, w.hi-f)
		t := w.gather(i, len(lo), tl, th)
		combineTerms(ll.Row(i), tl[:t], lo[:t])
		combineTerms(hl.Row(i), th[:t], lo[:t])
		t = w.gather(i, len(hi), tl, th)
		combineTerms(lh.Row(i), tl[:t], hi[:t])
		combineTerms(hh.Row(i), th[:t], hi[:t])
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
	row      rowFunc // nil when the row filter runs on the taps rt
	buf      []float64
	xe, xo   []float64   // even and odd samples of a source row, extended
	rt       [][]float64 // row tap k: (k even ? xe : xo)[k/2 : k/2+n]
	n        int         // samples per filtered row (src.Cols/2)
	rows     int         // source rows
	f        int         // longer analysis channel
	start    int         // first window row of the range
	lo, hi   int         // window of the current output row
	eLo, eHi int         // rows kept apart from the window
}

// reserve lays the window out in ring: the slots, then xe and xo
// (n+(f-1)/2 samples each) in one more slot's worth of the buffer, and
// a tap table for the column taps of both halves and the f row taps. A
// window without a source only filters rows (rowWindow) and has no
// slots.
//
//wavelint:hotpath
func (w *window) reserve(ring *Ring) {
	f, n := w.f, w.n
	e := (f - 1) / 2
	slots := 0
	if w.src != nil {
		slots = f + w.eHi - w.eLo
	}
	w.buf = ring.reserve(slots+1, n+e, 3*f)
	if w.ext != filter.Periodic || 2*n < f {
		w.row = pickRow(w.bank)
		return
	}
	w.xe = w.buf[2*slots*n:][:n+e]
	w.xo = w.buf[2*slots*n+n+e:][:n+e]
	w.rt = ring.taps[2*f : 3*f]
	for k := range w.rt {
		x := w.xe
		if k%2 == 1 {
			x = w.xo
		}
		w.rt[k] = x[k/2 : k/2+n]
	}
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
	w.filterRow(w.src.Row(j), l, h)
}

// filterRow row-filters x (2·n samples) into l and h.
//
// Under Periodic with 2·n >= f, output i of a channel h is
// Σ h[k]·x[(2i+k) mod 2n], from +0 in ascending k, for every i: the
// reference's interior outputs index x directly and its border outputs
// wrap once (2i+k < 4n). x[(2i+k) mod 2n] is sample (i+k/2) mod n of
// the even half of x for even k and of the odd half for odd k. So the
// row is deinterleaved once into xe and xo, both are extended
// periodically by (f-1)/2 samples, and each channel is one combineTerms
// over the row taps rt: the same terms in the same order, wrapped
// outputs included. Other rows run pickRow's kernel.
//
//wavelint:hotpath
func (w *window) filterRow(x, l, h []float64) {
	lo, hi := w.bank.DecLo, w.bank.DecHi
	if w.row != nil {
		w.row(x, lo, hi, l, h, w.ext)
		return
	}
	deinterleave(w.xe[:w.n], w.xo[:w.n], x)
	copy(w.xe[w.n:], w.xe)
	copy(w.xo[w.n:], w.xo)
	combineTerms(l, w.rt[:len(lo)], lo)
	combineTerms(h, w.rt[:len(hi)], hi)
}

// deinterleaveCols sets e[m] = x[2m] and o[m] = x[2m+1] for m from m0
// up to len(e): the pure-Go deinterleave, and the tail the vector loop
// leaves.
//
//wavelint:hotpath
func deinterleaveCols(e, o, x []float64, m0 int) {
	o = o[:len(e)]
	x = x[:2*len(e)]
	for m := m0; m < len(e); m++ {
		e[m], o[m] = x[2*m], x[2*m+1]
	}
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
// k of output row i for a length-f channel and returns how many taps
// are present. Taps resolve through ext.Index; an extension that skips
// an index skips every index past the last row, so the present taps are
// 0..t-1 and the skipped ones the reference's skipped border taps.
//
//wavelint:hotpath
func (w *window) gather(i, f int, tl, th [][]float64) int {
	for k := 0; k < f; k++ {
		j, ok := w.ext.Index(2*i+k, w.rows)
		if !ok {
			return k
		}
		tl[k], th[k] = w.at(j)
	}
	return f
}
