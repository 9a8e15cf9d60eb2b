package simd

import (
	"fmt"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// SystolicConvolve executes the MasPar systolic step sequence on a logical
// ring of len(x) PEs: the ACU broadcasts filter elements from last to
// first; every PE multiply-accumulates the broadcast coefficient with its
// own pixel and then shifts its partial sum one PE to the left over the
// X-net. After len(h) steps PE i holds Σ_k h[k]·x[(i+k) mod n] — the
// undecimated periodic correlation.
func SystolicConvolve(x, h []float64) []float64 {
	n := len(x)
	acc := make([]float64, n)
	if n == 0 {
		return acc
	}
	for k := len(h) - 1; k >= 0; k-- {
		coeff := h[k] // ACU broadcast
		for i := 0; i < n; i++ {
			acc[i] += coeff * x[i] // simultaneous MAC on every PE
		}
		if k > 0 {
			shiftLeft(acc, 1)
		}
	}
	return acc
}

// shiftLeft rotates the PE ring contents dist positions left (each PE
// receives its right neighbor's value), the X-net toroidal shift.
func shiftLeft(acc []float64, dist int) {
	n := len(acc)
	dist %= n
	if dist == 0 {
		return
	}
	tmp := make([]float64, dist)
	copy(tmp, acc[:dist])
	copy(acc, acc[dist:])
	copy(acc[n-dist:], tmp)
}

// RouterDecimate models the global-router compaction of the systolic
// algorithm: even-indexed partial results are gathered into a
// half-length array.
func RouterDecimate(acc []float64) []float64 {
	out := make([]float64, len(acc)/2)
	for j := range out {
		out[j] = acc[2*j]
	}
	return out
}

// DilutedConvolve executes the dilution variant: the filter is stretched
// by the stride, so PE i accumulates Σ_k h[k]·x[(i + k·stride) mod n]
// with shifts of the stride distance instead of router compaction.
// Positions that are multiples of 2·stride then hold the next level's
// live coefficients in place.
func DilutedConvolve(x, h []float64, stride int) []float64 {
	if stride < 1 {
		panic("simd: stride must be >= 1")
	}
	n := len(x)
	acc := make([]float64, n)
	if n == 0 {
		return acc
	}
	for k := len(h) - 1; k >= 0; k-- {
		coeff := h[k]
		for i := 0; i < n; i++ {
			acc[i] += coeff * x[i]
		}
		if k > 0 {
			shiftLeft(acc, stride)
		}
	}
	return acc
}

// SystolicAnalyze1D performs one analysis level on the PE ring with the
// systolic algorithm (router decimation), returning approximation and
// detail vectors identical to wavelet.Analyze1D with periodic extension.
func SystolicAnalyze1D(x []float64, bank *filter.Bank) (approx, detail []float64) {
	if len(x)%2 != 0 {
		panic(fmt.Sprintf("simd: odd signal length %d", len(x)))
	}
	return RouterDecimate(SystolicConvolve(x, bank.DecLo)), RouterDecimate(SystolicConvolve(x, bank.DecHi))
}

// DilutedDecompose1D performs a full multi-level decomposition with the
// dilution algorithm: coefficients stay in place on the PE ring, with
// live positions striding 2^level apart. It returns the same result as
// wavelet.Decompose1D.
func DilutedDecompose1D(x []float64, bank *filter.Bank, levels int) (*wavelet.Decomposition1D, error) {
	if levels < 1 {
		return nil, fmt.Errorf("simd: levels = %d", levels)
	}
	if !wavelet.DivisiblePow2(len(x), levels) {
		return nil, fmt.Errorf("simd: length %d not divisible by 2^%d", len(x), levels)
	}
	d := &wavelet.Decomposition1D{Bank: bank, Ext: filter.Periodic, Details: make([][]float64, levels)}
	live := make([]float64, len(x))
	copy(live, x)
	for l := 0; l < levels; l++ {
		stride := 1 << uint(l)
		// Dilute the filters and convolve in place; live coefficients
		// sit at multiples of stride, next level's at 2·stride.
		lo := DilutedConvolve(live, bank.DecLo, stride)
		hi := DilutedConvolve(live, bank.DecHi, stride)
		// Detail coefficients of this level: hi at even live positions.
		det := extractStrided(hi, 2*stride)
		d.Details[levels-1-l] = det
		// The diluted convolution touched every position; only the
		// stride-aligned ones are meaningful for the next level.
		live = lo
	}
	d.Approx = extractStrided(live, 1<<uint(levels))
	return d, nil
}

// extractStrided gathers positions 0, s, 2s, ... of x.
func extractStrided(x []float64, s int) []float64 {
	out := make([]float64, len(x)/s)
	for i := range out {
		out[i] = x[i*s]
	}
	return out
}

// SystolicAnalyze2D performs one separable 2-D decomposition level with
// the systolic row/column passes, matching wavelet.Analyze2D with
// periodic extension.
func SystolicAnalyze2D(im *image.Image, bank *filter.Bank) *wavelet.Subbands {
	if im.Cols%2 != 0 || im.Rows%2 != 0 {
		panic(fmt.Sprintf("simd: odd image %dx%d", im.Rows, im.Cols))
	}
	l := image.New(im.Rows, im.Cols/2)
	h := image.New(im.Rows, im.Cols/2)
	for r := 0; r < im.Rows; r++ {
		a, d := SystolicAnalyze1D(im.Row(r), bank)
		copy(l.Row(r), a)
		copy(h.Row(r), d)
	}
	cols := func(src *image.Image) (lo, hi *image.Image) {
		lo = image.New(src.Rows/2, src.Cols)
		hi = image.New(src.Rows/2, src.Cols)
		buf := make([]float64, src.Rows)
		for c := 0; c < src.Cols; c++ {
			buf = src.Col(c, buf)
			a, d := SystolicAnalyze1D(buf, bank)
			lo.SetCol(c, a)
			hi.SetCol(c, d)
		}
		return lo, hi
	}
	ll, lh := cols(l)
	hl, hh := cols(h)
	return &wavelet.Subbands{LL: ll, LH: lh, HL: hl, HH: hh}
}

// SystolicDecompose runs a full multi-level 2-D decomposition with the
// systolic algorithm, producing the same pyramid as wavelet.Decompose.
func SystolicDecompose(im *image.Image, bank *filter.Bank, levels int) (*wavelet.Pyramid, error) {
	if err := wavelet.CheckDecomposable(im.Rows, im.Cols, levels); err != nil {
		return nil, err
	}
	p := &wavelet.Pyramid{Bank: bank, Ext: filter.Periodic, Levels: make([]wavelet.DetailBands, levels)}
	cur := im
	for l := 0; l < levels; l++ {
		sb := SystolicAnalyze2D(cur, bank)
		p.Levels[levels-1-l] = wavelet.DetailBands{LH: sb.LH, HL: sb.HL, HH: sb.HH}
		cur = sb.LL
	}
	p.Approx = cur
	return p, nil
}

// SystolicConvolveRight is the synthesis-direction systolic sequence: the
// ACU broadcasts filter elements from last to first while partial sums
// shift one PE to the RIGHT, yielding the periodic convolution
// acc[i] = Σ_k h[k]·x[(i-k) mod n].
func SystolicConvolveRight(x, h []float64) []float64 {
	n := len(x)
	acc := make([]float64, n)
	if n == 0 {
		return acc
	}
	for k := len(h) - 1; k >= 0; k-- {
		coeff := h[k]
		for i := 0; i < n; i++ {
			acc[i] += coeff * x[i]
		}
		if k > 0 {
			shiftRight(acc, 1)
		}
	}
	return acc
}

// shiftRight rotates the PE ring contents dist positions right.
func shiftRight(acc []float64, dist int) {
	n := len(acc)
	dist %= n
	shiftLeft(acc, n-dist)
}

// upsample2 inserts a zero after every coefficient — the router-free dual
// of decimation for the synthesis pass.
func upsample2(c []float64) []float64 {
	out := make([]float64, 2*len(c))
	for i, v := range c {
		out[2*i] = v
	}
	return out
}

// SystolicSynthesize1D inverts SystolicAnalyze1D on the PE ring: the
// coefficient vectors are upsampled in place and convolved (rightward
// systolic) with the same bank, reproducing wavelet.Synthesize1D exactly.
func SystolicSynthesize1D(approx, detail []float64, bank *filter.Bank) []float64 {
	if len(approx) != len(detail) {
		panic("simd: synthesis length mismatch")
	}
	lo := SystolicConvolveRight(upsample2(approx), bank.RecLo)
	hi := SystolicConvolveRight(upsample2(detail), bank.RecHi)
	out := make([]float64, len(lo))
	for i := range out {
		out[i] = lo[i] + hi[i]
	}
	return out
}

// SystolicReconstruct inverts SystolicDecompose, running the synthesis
// step sequence level by level (the paper's Figure 2 on the SIMD array).
func SystolicReconstruct(p *wavelet.Pyramid) *image.Image {
	cur := p.Approx
	for _, d := range p.Levels {
		// Column synthesis: merge (cur, LH) and (HL, HH) column-wise.
		merge := func(lo, hi *image.Image) *image.Image {
			out := image.New(lo.Rows*2, lo.Cols)
			bufLo := make([]float64, lo.Rows)
			bufHi := make([]float64, lo.Rows)
			for c := 0; c < lo.Cols; c++ {
				bufLo = lo.Col(c, bufLo)
				bufHi = hi.Col(c, bufHi)
				out.SetCol(c, SystolicSynthesize1D(bufLo, bufHi, p.Bank))
			}
			return out
		}
		l := merge(cur, d.LH)
		h := merge(d.HL, d.HH)
		// Row synthesis.
		out := image.New(l.Rows, l.Cols*2)
		for r := 0; r < l.Rows; r++ {
			copy(out.Row(r), SystolicSynthesize1D(l.Row(r), h.Row(r), p.Bank))
		}
		cur = out
	}
	return cur
}
