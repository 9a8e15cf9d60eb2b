package kernel

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// SynthesizeLevelRange computes rows [r0, r1) of out, one synthesis
// level rebuilt from the four subbands ll, lh, hl and hh (each
// out.Rows/2 × out.Cols/2): the fused form of the column synthesis of
// (ll, lh) into L and (hl, hh) into H followed by the row synthesis
// that merges each L|H row, with no full-size L/H intermediate.
//
// For each output row r it column-synthesizes the L|H row r straight
// from the few source rows whose support covers r into a one-row
// scratch: every coefficient starts at +0 and adds the RecLo terms —
// interior sources in ascending i, then the border sources (those whose
// support 2i..2i+f-1 leaves the column) in ascending (i, k) through
// ext.Index — and then the RecHi terms in the same order, which is the
// order wavelet.SynthesizeStep gives each column coefficient. It then
// merges the L and H halves into the output row in the same order
// (rowSynth). scratch is resized as needed and must not be shared by
// concurrent calls.
//
//wavelint:hotpath
func SynthesizeLevelRange(out, ll, lh, hl, hh *image.Image, bank *filter.Bank, ext filter.Extension, r0, r1 int, scratch *Ring) {
	n, c := out.Rows, ll.Cols
	lo := newSynthColumn(bank.RecLo, ext, n)
	hi := newSynthColumn(bank.RecHi, ext, n)
	terms := lo.maxTerms() + hi.maxTerms()
	// One slot of c+⌈terms/2⌉ L/H samples holds the L|H row and the
	// weights; the tap table holds both sides' source rows.
	buf := scratch.reserve(1, c+(terms+1)/2, 2*terms)
	row, w := buf[:2*c], buf[2*c:2*c+terms]
	xl, xr := scratch.taps[:terms], scratch.taps[terms:]
	rs := newRowSynth(bank, ext, out.Cols)
	for r := r0; r < r1; r++ {
		t := lo.gather(r, ll, hl, xl, xr, w, 0)
		t = hi.gather(r, lh, hh, xl, xr, w, t)
		combineTerms(row[:c], xl[:t], w[:t])
		combineTerms(row[c:], xr[:t], w[:t])
		rs.merge(out.Row(r), row[:c], row[c:])
	}
	// The ring outlives this call in a pool or an arena; drop its row
	// references so it does not keep the subbands alive.
	clear(scratch.taps)
}

// lastInterior returns the last source of an n-sample synthesis whose
// length-f support 2i..2i+f-1 stays in range, or -1 if none does.
//
//wavelint:hotpath
func lastInterior(n, f int) int {
	if n < f {
		return -1 // truncating division mishandles n-f = -1
	}
	return (n - f) / 2
}

// synthColumn is one channel of the column stage of
// SynthesizeLevelRange over n output rows: its filter and its last
// interior source.
//
// A border source i > last puts its terms at positions 2i+k in
// [2·last+2, n+f-3]: in range they stay at or above 2·last+2, Periodic
// wraps the rest below f-2 (n >= f whenever last >= 0, so one wrap
// suffices), Symmetric reflects them to n-f+2 >= 2·last+2 or above, and
// Zero drops them. Rows in [f-2, 2·last+2) therefore take interior terms
// only, and gather skips the border scan there.
type synthColumn struct {
	h       []float64
	ext     filter.Extension
	n, last int
}

// newSynthColumn returns the column stage of filter h over n rows.
//
//wavelint:hotpath
func newSynthColumn(h []float64, ext filter.Extension, n int) synthColumn {
	return synthColumn{h: h, ext: ext, n: n, last: lastInterior(n, len(h))}
}

// maxTerms bounds the terms of one output row: at most ⌈f/2⌉ interior
// sources, plus at most every border tap.
//
//wavelint:hotpath
func (s *synthColumn) maxTerms() int {
	return (len(s.h)+1)/2 + (s.n/2-1-s.last)*len(s.h)
}

// gather appends the channel's terms of output row r, in the reference
// order, to the tap tables from index t: the source rows of a go to xa,
// those of b to xb and the weights to w. It returns the new term count.
//
//wavelint:hotpath
func (s *synthColumn) gather(r int, a, b *image.Image, xa, xb [][]float64, w []float64, t int) int {
	f := len(s.h)
	for i := max(0, (r-f+2)/2); i <= min(r/2, s.last); i++ {
		xa[t], xb[t], w[t] = a.Row(i), b.Row(i), s.h[r-2*i]
		t++
	}
	if r >= f-2 && r < 2*s.last+2 {
		return t
	}
	for i := s.last + 1; 2*i < s.n; i++ {
		for k, hk := range s.h {
			if j, ok := s.ext.Index(2*i+k, s.n); ok && j == r {
				xa[t], xb[t], w[t] = a.Row(i), b.Row(i), hk
				t++
			}
		}
	}
	return t
}

// combineTerms sets d[c] = Σ w[t]·x[t][c], started at +0 and summed in
// ascending t. Blocks of up to eight terms are added with the running
// sum held in a register, each resuming from the partial sums the
// previous block stored in d, which changes no bit.
//
//wavelint:hotpath
func combineTerms(d []float64, x [][]float64, w []float64) {
	zeroSeg(d)
	for len(x) > 0 {
		switch {
		case len(x) >= 8:
			sum8(d, x, w)
			x, w = x[8:], w[8:]
		case len(x) >= 4:
			sum4(d, x, w)
			x, w = x[4:], w[4:]
		case len(x) >= 2:
			sum2(d, x, w)
			x, w = x[2:], w[2:]
		default:
			axpySeg(d, x[0], w[0])
			x, w = x[1:], w[1:]
		}
	}
}

//wavelint:hotpath
func sum2(d []float64, x [][]float64, w []float64) {
	n := len(d)
	x0, x1 := x[0][:n], x[1][:n]
	w0, w1 := w[0], w[1]
	for c := range d {
		a := d[c]
		a += w0 * x0[c]
		a += w1 * x1[c]
		d[c] = a
	}
}

//wavelint:hotpath
func sum4(d []float64, x [][]float64, w []float64) {
	n := len(d)
	x0, x1, x2, x3 := x[0][:n], x[1][:n], x[2][:n], x[3][:n]
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	for c := range d {
		a := d[c]
		a += w0 * x0[c]
		a += w1 * x1[c]
		a += w2 * x2[c]
		a += w3 * x3[c]
		d[c] = a
	}
}

//wavelint:hotpath
func sum8(d []float64, x [][]float64, w []float64) {
	n := len(d)
	x0, x1, x2, x3 := x[0][:n], x[1][:n], x[2][:n], x[3][:n]
	x4, x5, x6, x7 := x[4][:n], x[5][:n], x[6][:n], x[7][:n]
	w0, w1, w2, w3, w4, w5, w6, w7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
	for c := range d {
		a := d[c]
		a += w0 * x0[c]
		a += w1 * x1[c]
		a += w2 * x2[c]
		a += w3 * x3[c]
		a += w4 * x4[c]
		a += w5 * x5[c]
		a += w6 * x6[c]
		a += w7 * x7[c]
		d[c] = a
	}
}

//wavelint:hotpath
func zeroSeg(d []float64) {
	for c := range d {
		d[c] = 0
	}
}

// axpySeg adds w·s into d element-wise.
//
//wavelint:hotpath
func axpySeg(d, s []float64, w float64) {
	d = d[:len(s)]
	for c, v := range s {
		d[c] += w * v
	}
}

// rowSynth is the row stage of SynthesizeLevelRange for output rows of
// n samples: it merges a row's column-synthesized L and H halves into
// the output row, each output j receiving +0, its RecLo terms
// h[j-2i]·L[i] (interior sources in ascending i, then border sources in
// ascending (i, k) through ext.Index), then its RecHi terms in the same
// order — wavelet.SynthesizeStep's order, as a gather.
//
// Outputs in [a, b) are pairs (2m, 2m+1) whose sources are interior in
// both channels; they sum both channels in registers, four pairs side
// by side so eight independent accumulator chains hide the
// floating-point add latency, in the interior loop pickPairs chooses
// for the filter lengths (synthpairs.go). No RecLo border source
// reaches them: a border position 2i+k lies in [2·lastLo+2, n+f-3],
// which stays at or above b, Periodic wraps below f-2 <= a, Symmetric
// reflects to n-f+2 >= b, and Zero drops. The few other outputs take the terms
// channel by channel, with the RecLo border sources scattered between
// the channels.
type rowSynth struct {
	lo, hi         []float64
	ext            filter.Extension
	lastLo, lastHi int
	a, b           int
	pairs          pairFunc
}

// newRowSynth builds the row stage for rows of n samples.
//
//wavelint:hotpath
func newRowSynth(bank *filter.Bank, ext filter.Extension, n int) rowSynth {
	lo, hi := bank.RecLo, bank.RecHi
	s := rowSynth{lo: lo, hi: hi, ext: ext, lastLo: lastInterior(n, len(lo)), lastHi: lastInterior(n, len(hi)), pairs: pickPairs(lo, hi)}
	s.a = 2 * max((len(lo)-1)/2, (len(hi)-1)/2)
	s.b = 2*min(s.lastLo, s.lastHi) + 2
	if s.b <= s.a {
		s.a, s.b = n, n
	}
	return s
}

// merge writes the output row out from its L and H halves.
//
//wavelint:hotpath
func (s *rowSynth) merge(out, l, h []float64) {
	s.edges(out, l, s.lo, s.lastLo, true)
	synthScatter(l, s.lo, s.ext, out, s.lastLo)
	s.edges(out, h, s.hi, s.lastHi, false)
	m := s.pairs(out, l, h, s.lo, s.hi, s.a/2, s.b)
	for j := 2 * m; j < s.b; j++ {
		out[j] = 0
		synthGatherAt(l, s.lo, out, j, s.lastLo)
		synthGatherAt(h, s.hi, out, j, s.lastHi)
	}
	synthScatter(h, s.hi, s.ext, out, s.lastHi)
}

// edges adds the interior terms of channel c to the outputs outside
// [a, b), first setting them to +0 when fresh is set.
//
//wavelint:hotpath
func (s *rowSynth) edges(out, c, h []float64, last int, fresh bool) {
	for _, span := range [2][2]int{{0, s.a}, {s.b, len(out)}} {
		for j := span[0]; j < span[1]; j++ {
			if fresh {
				out[j] = 0
			}
			synthGatherAt(c, h, out, j, last)
		}
	}
}

// synthScatter adds the terms of the border sources of channel c (those
// after last) into out in ascending (i, k), through ext.Index.
//
//wavelint:hotpath
func synthScatter(c, h []float64, ext filter.Extension, out []float64, last int) {
	n := len(out)
	for i := last + 1; i < len(c); i++ {
		ci := c[i]
		for k, w := range h {
			if j, ok := ext.Index(2*i+k, n); ok {
				out[j] += w * ci
			}
		}
	}
}

// synthGatherAt adds the interior terms of output j — sources i in
// [ceil((j-f+1)/2), min(j/2, last)], ascending — to out[j].
//
//wavelint:hotpath
func synthGatherAt(c, h, out []float64, j, last int) {
	iLo := (j - len(h) + 2) / 2
	if iLo < 0 {
		iLo = 0
	}
	iHi := j / 2
	if iHi > last {
		iHi = last
	}
	acc := out[j]
	for i := iLo; i <= iHi; i++ {
		acc += h[j-2*i] * c[i]
	}
	out[j] = acc
}
