//go:build amd64 && !purego

package kernel

import "wavelethpc/internal/filter"

// liftVecMin is the narrowest run, in samples per channel, that liftVec
// and liftRowVec take: below it a call's fixed cost outweighs the vector
// loop's gain, and the Go loops run. BenchmarkLiftLevelRange's narrow
// shapes sit on either side of it.
const liftVecMin = 16

// liftAVX2 modes: the sum starts at +0 rather than at the first
// product, and the result is scaled by c.
const (
	liftZero  = 1
	liftScale = 2
)

// liftAVX2 sets out[i] = d[i] + acc for i < len(out), where acc is
// t[0]·x[0][i], then +0 + that product under liftZero, plus t[j]·x[j][i]
// for j = 1, 2, ... in turn; with no taps out[i] = d[i]. Under liftScale
// the result is then multiplied by c. Eight samples at a time in AVX2,
// the rest as one chunk of masked loads and stores, every lane with one
// VMULPD and one VADDPD per term in that order, never a fused
// multiply-add. d and every x[j] must hold len(out) samples and t
// len(x). Each block of samples loads its d before it stores, so out may
// start at or before d in one array.
//
//go:noescape
func liftAVX2(out, d []float64, x [][]float64, t []float64, c float64, mode int)

// liftVec sets out[i] = c·(d[i] + acc) for i < len(out) on liftAVX2,
// where acc is the step Σ t[j]·x[j][i] summed in ascending j from the
// first product, as liftRowStep and liftSegInterior's one- to three-tap
// forms sum it, or from +0 when zero is set, as their wider forms and
// the wrapped rows do. With no taps out[i] = c·d[i]. A unit c scales
// only a tapless copy: a sum is never a signaling NaN, so multiplying it
// by 1 changes no bit. liftVec reports whether it ran; without AVX2, or
// for fewer than liftVecMin samples, it does nothing and the caller runs
// its Go loop.
//
//wavelint:hotpath
func liftVec(out, d []float64, x [][]float64, t []float64, c float64, zero bool) bool {
	if !hasAVX2 || len(out) < liftVecMin {
		return false
	}
	n := len(out)
	d, t = d[:n], t[:len(x)]
	for _, xj := range x {
		_ = xj[:n]
	}
	mode := 0
	if zero {
		mode = liftZero
	}
	if c != 1 || len(x) == 0 {
		mode |= liftScale
	}
	liftAVX2(out, d, x, t, c, mode)
	return true
}

// liftRowVec is liftRow on liftVec and reports whether it ran, which
// it does for rows of liftVecMin pairs or more: one deinterleave pass,
// then each step on liftRowStep, whose interior is one liftVec call,
// then scaleRotateVec's vector passes. Every coefficient gets liftRow's
// terms in liftRow's order: the first step reads the values
// liftRowDeinterleaveStep0 reads from the interleaved row, and sums from
// +0 from three taps on where the later steps do so from four.
//
//wavelint:hotpath
func liftRowVec(x, s, d []float64, sch *filter.LiftingScheme) bool {
	if !hasAVX2 || len(s) < liftVecMin {
		return false
	}
	deinterleave(s, d, x[:2*len(s)])
	for k := range sch.Steps {
		st := &sch.Steps[k]
		dst, src := d, s
		if st.ToS {
			dst, src = s, d
		}
		liftRowStep(dst, src, st, k == 0 && len(st.Taps) > 2)
	}
	scaleRotateVec(s, sch.SScale, sch.SShift)
	scaleRotateVec(d, sch.DScale, sch.DShift)
	return true
}
