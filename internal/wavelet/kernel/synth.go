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
// from the few source rows whose support covers r into a small
// scratch: every coefficient starts at +0 and adds the RecLo terms —
// interior sources in ascending i, then the border sources (those whose
// support 2i..2i+f-1 leaves the column) in ascending (i, k) through
// ext.Index — and then the RecHi terms in the same order, which is the
// order wavelet.SynthesizeStep gives each column coefficient. It then
// merges the L and H halves into the output row in the same order
// (rowSynth). The rows 2m and 2m+1 of a pair whose rows take interior
// terms only in both channels read the same source rows, so they are
// column-synthesized together, each source row loaded once for both
// (gatherPair, combinePair). scratch is resized as needed and must not
// be shared by concurrent calls.
//
//wavelint:hotpath
func SynthesizeLevelRange(out, ll, lh, hl, hh *image.Image, bank *filter.Bank, ext filter.Extension, r0, r1 int, scratch *Ring) {
	n, c := out.Rows, ll.Cols
	lo := newSynthColumn(bank.RecLo, ext, n)
	hi := newSynthColumn(bank.RecHi, ext, n)
	terms := lo.maxTerms() + hi.maxTerms()
	// Two slots of c+⌈terms/2⌉ L/H samples hold the L|H rows of a pair
	// and two weights per term; the tap table holds both sides' source
	// rows.
	buf := scratch.reserve(2, c+(terms+1)/2, 2*terms)
	row0, row1, w := buf[:2*c], buf[2*c:4*c], buf[4*c:4*c+2*terms]
	xl, xr := scratch.taps[:terms], scratch.taps[terms:]
	rs := newRowSynth(bank, ext, out.Cols)
	pa, pb := pairRows(&lo, &hi)
	for r := r0; r < r1; {
		if r&1 == 0 && r >= pa && r+2 <= min(pb, r1) {
			m := r / 2
			t, lead := lo.gatherPair(m, ll, hl, xl, xr, w, 0, 0)
			t, lead = hi.gatherPair(m, lh, hh, xl, xr, w, t, lead)
			combinePair(row0[:c], row1[:c], xl[:t], w[:2*t], lead)
			combinePair(row0[c:], row1[c:], xr[:t], w[:2*t], lead)
			rs.merge(out.Row(r), row0[:c], row0[c:])
			rs.merge(out.Row(r+1), row1[:c], row1[c:])
			r += 2
			continue
		}
		t := lo.gather(r, ll, hl, xl, xr, w, 0)
		t = hi.gather(r, lh, hh, xl, xr, w, t)
		combineTerms(row0[:c], xl[:t], w[:t])
		combineTerms(row0[c:], xr[:t], w[:t])
		rs.merge(out.Row(r), row0[:c], row0[c:])
		r++
	}
	// The ring outlives this call in a pool or an arena; drop its row
	// references so it does not keep the subbands alive.
	clear(scratch.taps)
}

// maxPairTerms bounds the terms of a pair of output rows, so that its
// lead marks fit one uint64; a bank with more takes its rows one by
// one.
const maxPairTerms = 64

// pairRows returns the output rows [pa, pb), pa even, whose pairs
// (2m, 2m+1) gatherPair can take: rows that take interior terms only in
// both channels, [f-2, 2·last+2) for each.
//
//wavelint:hotpath
func pairRows(lo, hi *synthColumn) (pa, pb int) {
	if (len(lo.h)+1)/2+(len(hi.h)+1)/2 > maxPairTerms {
		return 0, 0
	}
	pa = max(0, len(lo.h)-2, len(hi.h)-2)
	return pa + pa&1, 2*min(lo.last, hi.last) + 2
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

// combineCols sets d[c] = Σ w[t]·x[t][c] for the columns c >= c0 of d,
// each started at +0 and summed in ascending t: the pure-Go
// combineTerms, and the tail the vector loop leaves. It adds four terms
// per pass over d, in a register, so d is loaded and stored once per
// four terms.
//
//wavelint:hotpath
func combineCols(d []float64, x [][]float64, w []float64, c0 int) {
	d = d[c0:]
	n := len(d)
	zeroSeg(d)
	t := 0
	for ; t+4 <= len(x); t += 4 {
		x0, x1, x2, x3 := x[t][c0:c0+n], x[t+1][c0:c0+n], x[t+2][c0:c0+n], x[t+3][c0:c0+n]
		w0, w1, w2, w3 := w[t], w[t+1], w[t+2], w[t+3]
		for c := range d {
			a := d[c]
			a += float64(w0 * x0[c])
			a += float64(w1 * x1[c])
			a += float64(w2 * x2[c])
			a += float64(w3 * x3[c])
			d[c] = a
		}
	}
	for ; t < len(x); t++ {
		axpySeg(d, x[t][c0:c0+n], w[t])
	}
}

// gatherPair appends the channel's terms of the output rows 2m and
// 2m+1, both in [f-2, 2·last+2), to the tap tables from index t, in the
// reference order of each row: the source rows of a go to xa, those of
// b to xb, and the two rows' weights to w[2t] and w[2t+1]. The rows
// share their sources m-⌊f/2⌋+1..m, except that under an odd f row 2m
// takes one more, m-(f-1)/2, first: a lead term, marked by its bit in
// lead, which row 2m+1 does not take (its w[2t+1] is unused). It
// returns the new term count and lead marks.
//
//wavelint:hotpath
func (s *synthColumn) gatherPair(m int, a, b *image.Image, xa, xb [][]float64, w []float64, t int, lead uint64) (int, uint64) {
	f := len(s.h)
	i := m - (f-1)/2
	if f&1 != 0 {
		xa[t], xb[t], w[2*t], w[2*t+1] = a.Row(i), b.Row(i), s.h[f-1], 0
		lead |= 1 << t
		t++
		i++
	}
	for ; i <= m; i++ {
		xa[t], xb[t], w[2*t], w[2*t+1] = a.Row(i), b.Row(i), s.h[2*(m-i)], s.h[2*(m-i)+1]
		t++
	}
	return t, lead
}

// combinePairCols sets d0[c] and d1[c], for the columns c >= c0 of d0,
// to the column sums of a pair of output rows over one term list: each
// starts at +0 and adds, in ascending t, w[2t]·x[t][c] to d0 and
// w[2t+1]·x[t][c] to d1, except that a lead term (its bit set in lead)
// adds to d0 only. It is the pure-Go combinePair and the tail its
// vector loop leaves. It adds up to four shared terms per pass over
// the columns, in registers.
//
//wavelint:hotpath
func combinePairCols(d0, d1 []float64, x [][]float64, w []float64, lead uint64, c0 int) {
	d0, d1 = d0[c0:], d1[c0:len(d0)]
	n := len(d0)
	zeroSeg(d0)
	zeroSeg(d1)
	for t := 0; t < len(x); {
		switch {
		case lead>>t&1 != 0:
			axpySeg(d0, x[t][c0:c0+n], w[2*t])
			t++
		case t+4 <= len(x) && lead>>t&15 == 0:
			x0, x1, x2, x3 := x[t][c0:c0+n], x[t+1][c0:c0+n], x[t+2][c0:c0+n], x[t+3][c0:c0+n]
			w8 := w[2*t : 2*t+8]
			e0, o0, e1, o1, e2, o2, e3, o3 := w8[0], w8[1], w8[2], w8[3], w8[4], w8[5], w8[6], w8[7]
			for c := range d0 {
				a, b := d0[c], d1[c]
				v0, v1, v2, v3 := x0[c], x1[c], x2[c], x3[c]
				a += float64(e0 * v0)
				b += float64(o0 * v0)
				a += float64(e1 * v1)
				b += float64(o1 * v1)
				a += float64(e2 * v2)
				b += float64(o2 * v2)
				a += float64(e3 * v3)
				b += float64(o3 * v3)
				d0[c], d1[c] = a, b
			}
			t += 4
		default:
			e, o := w[2*t], w[2*t+1]
			for c, v := range x[t][c0 : c0+n] {
				d0[c] += float64(e * v)
				d1[c] += float64(o * v)
			}
			t++
		}
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
		d[c] += float64(w * v)
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
// by side (mergeInterior: a vector loop where the CPU has one, else
// mergePairs). No RecLo border source reaches them: a border position
// 2i+k lies in [2·lastLo+2, n+f-3], which stays at or above b, Periodic
// wraps below f-2 <= a, Symmetric reflects to n-f+2 >= b, and Zero
// drops. The few other outputs take the terms channel by channel, with
// the RecLo border sources scattered between the channels.
type rowSynth struct {
	lo, hi         []float64
	ext            filter.Extension
	lastLo, lastHi int
	a, b           int
}

// newRowSynth builds the row stage for rows of n samples.
//
//wavelint:hotpath
func newRowSynth(bank *filter.Bank, ext filter.Extension, n int) rowSynth {
	lo, hi := bank.RecLo, bank.RecHi
	s := rowSynth{lo: lo, hi: hi, ext: ext, lastLo: lastInterior(n, len(lo)), lastHi: lastInterior(n, len(hi))}
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
	m := mergeInterior(out, l, h, s.lo, s.hi, s.a/2, s.b)
	for j := 2 * m; j < s.b; j++ {
		out[j] = 0
		synthGatherAt(l, s.lo, out, j, s.lastLo)
		synthGatherAt(h, s.hi, out, j, s.lastHi)
	}
	synthScatter(h, s.hi, s.ext, out, s.lastHi)
}

// mergePairs writes the interior outputs of a synthesis row four pairs
// at a time: every block of pairs (2k, 2k+1), k in [m, m+4), with
// 2m+8 <= b, merged from the L half l and the H half h under the RecLo
// filter lo and the RecHi filter hi. It returns the first pair it left
// for the scalar tail.
//
// Every output is summed in registers as rowSynth documents: +0, the
// extra even RecLo tap of an odd length, the RecLo taps by descending t
// (ascending source index), then the RecHi taps the same way.
//
//wavelint:hotpath
func mergePairs(out, l, h, lo, hi []float64, m, b int) int {
	for ; 2*m+8 <= b; m += 4 {
		var e0, o0, e1, o1, e2, o2, e3, o3 float64
		for ch := 0; ch < 2; ch++ {
			c, f := l, lo
			if ch == 1 {
				c, f = h, hi
			}
			t, to := (len(f)-1)/2, len(f)/2-1
			if t > to {
				// Odd filter length: the even outputs have one more tap.
				w := f[2*t]
				cc := c[m-t : m-t+4]
				e0 += float64(w * cc[0])
				e1 += float64(w * cc[1])
				e2 += float64(w * cc[2])
				e3 += float64(w * cc[3])
				t--
			}
			for ; t >= 0; t-- {
				we, wo := f[2*t], f[2*t+1]
				cc := c[m-t : m-t+4]
				v0, v1, v2, v3 := cc[0], cc[1], cc[2], cc[3]
				e0 += float64(we * v0)
				o0 += float64(wo * v0)
				e1 += float64(we * v1)
				o1 += float64(wo * v1)
				e2 += float64(we * v2)
				o2 += float64(wo * v2)
				e3 += float64(we * v3)
				o3 += float64(wo * v3)
			}
		}
		o8 := out[2*m : 2*m+8]
		o8[0], o8[1], o8[2], o8[3] = e0, o0, e1, o1
		o8[4], o8[5], o8[6], o8[7] = e2, o2, e3, o3
	}
	return m
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
				out[j] += float64(w * ci)
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
		acc += float64(h[j-2*i] * c[i])
	}
	out[j] = acc
}
