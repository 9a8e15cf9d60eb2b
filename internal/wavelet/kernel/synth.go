package kernel

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// SynthesizeColsRange merges the column-filtered pair (lo, hi), each
// rows × cols, back into dst (2·rows × cols) over the column range
// [c0, c1). It is the fast-path equivalent of wavelet.SynthesizeCols
// restricted to a column range, and dst may be a strided view (the
// left or right half of a level's output image).
//
// Like AnalyzeColsRange it walks PanelWidth-column panels row by row
// instead of gathering one stride-N column at a time: for each source
// row i and tap k it adds h[k]·src[i] across the panel into destination
// row 2i+k, border rows resolved through ext.Index. The lo pass zeroes
// each destination row just before its first term arrives, so the panel
// is swept twice (lo, then hi) rather than three times.
//
//wavelint:hotpath
func SynthesizeColsRange(dst, lo, hi *image.Image, bank *filter.Bank, ext filter.Extension, c0, c1 int) {
	for p0 := c0; p0 < c1; p0 += PanelWidth {
		p1 := p0 + PanelWidth
		if p1 > c1 {
			p1 = c1
		}
		synthColsChannel(dst, lo, bank.RecLo, ext, p0, p1, true)
		synthColsChannel(dst, hi, bank.RecHi, ext, p0, p1, false)
	}
}

// synthColsChannel adds one upsampled, filtered channel of the [p0, p1)
// panel of src into dst, with the reference SynthesizeStep's
// interior/border split. With first set it overwrites dst instead:
// every destination row is zeroed just before the first source reaches
// it. Interior sources come first and their supports only move down, so
// a watermark z tracks the rows zeroed so far.
//
//wavelint:hotpath
func synthColsChannel(dst, src *image.Image, h []float64, ext filter.Extension, p0, p1 int, first bool) {
	n := dst.Rows
	f := len(h)
	z := n // destination rows below z hold accumulators
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

// SynthesizeRowsRange rebuilds rows [r0, r1) of im in place. On entry
// each row holds the column-synthesized lo channel in its left half and
// the hi channel in its right half (the layout SynthesizeColsRange
// leaves when it writes L and H into the two halves of a level's output
// image); on return it holds the merged row, bit-identical to
// wavelet.SynthesizeRows. scratch must hold at least im.Cols samples:
// each row is copied there, zeroed, and re-accumulated lo then hi, so
// the pass needs no full-size intermediate.
//
//wavelint:hotpath
func SynthesizeRowsRange(im *image.Image, scratch []float64, bank *filter.Bank, ext filter.Extension, r0, r1 int) {
	n := im.Cols
	half := n / 2
	scratch = scratch[:n]
	for r := r0; r < r1; r++ {
		row := im.Row(r)
		copy(scratch, row)
		zeroSeg(row)
		synthRow(scratch[:half], bank.RecLo, ext, row)
		synthRow(scratch[half:], bank.RecHi, ext, row)
	}
}

// synthRow adds one upsampled, filtered channel c into out (len
// 2·len(c)): wavelet.SynthesizeStep turned from a scatter into a
// gather. Each output sums its interior terms h[j-2i]·c[i] in ascending
// i in a register, and only the border sources (those whose support
// 2i..2i+f-1 leaves the row) are scattered afterwards through
// ext.Index. Every interior source precedes every border source, so
// each output still receives its terms in the reference order.
//
//wavelint:hotpath
func synthRow(c, h []float64, ext filter.Extension, out []float64) {
	n := len(out)
	f := len(h)
	last := (n - f) / 2 // last source whose support is in range
	if n < f {
		last = -1 // truncating division mishandles n-f = -1
	}
	// The blocked loop covers output pairs (2m, 2m+1) whose sources
	// m-te..m are all interior: even outputs take the even taps
	// h[2te..0], odd outputs the odd taps h[2to+1..1]. Four pairs run
	// side by side so eight independent accumulator chains hide the
	// floating-point add latency.
	te, to := (f-1)/2, f/2-1
	j := 0
	if f >= 2 && te <= last {
		for ; j < 2*te; j++ {
			synthGatherAt(c, h, out, j, last)
		}
		m := te
		for ; m+3 <= last; m += 4 {
			o8 := out[2*m : 2*m+8]
			e0, o0, e1, o1 := o8[0], o8[1], o8[2], o8[3]
			e2, o2, e3, o3 := o8[4], o8[5], o8[6], o8[7]
			t := te
			if te > to {
				// Odd filter length: the even outputs have one more tap.
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
			synthGatherAt(c, h, out, 2*m, last)
			synthGatherAt(c, h, out, 2*m+1, last)
		}
		j = 2*last + 2
	}
	for ; j < n; j++ {
		synthGatherAt(c, h, out, j, last)
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
