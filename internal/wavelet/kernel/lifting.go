package kernel

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// This file is the lifting tier: the factored predict/update schemes of
// internal/filter executed as 2-D sweeps. The drivers run each level as
// one sweep of LiftLevelRange (windowlift.go): it row-lifts each source
// row once into a ring, runs the column steps over a sliding window of
// ring rows, and writes each subband row once. The two-pass kernels here
// run the same routines one stage at a time over whole images and serve
// as its reference and as probes: one row pass deinterleaves each source
// row's polyphase pair directly into the vertically-deinterleaved
// subband images (LiftRowsRange, on the sweep's liftRow), and one
// in-place panel-blocked column pass lifts down the rows of each subband
// pair (LiftColsRange, on the sweep's liftSegInterior and liftSegAcc).
// The fused sweep is bit-identical to them because each ring row is the
// row LiftRowsRange writes, and each column step then applies to every
// coefficient the form LiftColsRange applies at its level position:
// dst + (t0·a + t1·b) in the interior, a +0-started accumulator on the
// wrapped rows (the two differ only in the sign of a zero), then the
// channel's c·x. Only the order across coefficients changes.
//
// Lifting reorders accumulation relative to the convolution kernels, so
// this tier is *not* under the bit-identity contract of the package
// comment — it is dispatched only when the caller opts in with a
// tolerance at least the scheme's advertised Eps, and only under
// periodic extension, where the factorization is an exact algebraic
// identity (see internal/filter/lifting.go). The drift-bound property
// suite in internal/wavelet enforces Eps end to end.
//
// Per-coefficient arithmetic here is ordered exactly as
// filter.ApplyLifting1D (per-step accumulator over the taps, then one
// add into the destination channel), so the kernels are bit-identical to
// the 1-D executable definition the factorization was validated against;
// blocking only reorders work across coefficients.
//
// On amd64 with AVX2 the fused sweep's row and column steps and its
// scales run on liftVec (liftvec_amd64.go), which repeats each
// coefficient's Go sequence in one vector lane; elsewhere, and under the
// purego tag, the Go loops here run.

// maxLiftTaps bounds the taps of a single lifting step the column kernel
// can execute with a fixed row-segment window. Catalog schemes stay well
// under it (longest is 4); LiftingScheme rejects anything longer.
const maxLiftTaps = 8

// maxLiftShift bounds the |monomial shift| the single-pass
// scale-and-rotate can realize with a fixed spill buffer; larger shifts
// fall back to the three-reversal rotation. Catalog schemes top out at 7
// (sym8's detail channel).
const maxLiftShift = 8

// LiftingScheme resolves the bank's lifting scheme, additionally
// enforcing the kernel-side step-width and step-count bounds.
//
//wavelint:coldpath factorization resolve, runs once per bank per process
func LiftingScheme(bank *filter.Bank) (*filter.LiftingScheme, error) {
	sch, err := filter.Lifting(bank)
	if err != nil {
		return nil, err
	}
	if len(sch.Steps) > maxLiftSteps {
		return nil, errTooManySteps
	}
	for _, st := range sch.Steps {
		if len(st.Taps) > maxLiftTaps {
			return nil, errStepTooWide
		}
	}
	return sch, nil
}

type liftErr string

func (e liftErr) Error() string { return string(e) }

// The errors are interface-typed at package init so returning them
// never boxes on a hot-adjacent path (the lint escape gate covers this
// package wall to wall).
var (
	errStepTooWide  error = liftErr("kernel: lifting step exceeds maxLiftTaps")
	errTooManySteps error = liftErr("kernel: lifting scheme exceeds maxLiftSteps")
)

// LiftRowsRange lifts rows [r0, r1) of src and scatters each row's
// polyphase outputs straight into the subband images of the level: even
// source rows land in (ll, hl), odd rows in (lh, hh) — the vertical
// deinterleave that LiftColsRange then consumes in place. Each of the
// four destinations is src.Rows/2 × src.Cols/2. Distinct source rows
// write distinct destination rows, so disjoint [r0, r1) ranges may run
// concurrently.
func LiftRowsRange(ll, lh, hl, hh, src *image.Image, sch *filter.LiftingScheme, r0, r1 int) {
	for r := r0; r < r1; r++ {
		x := src.Row(r)
		var s, d []float64
		if r&1 == 0 {
			s, d = ll.Row(r>>1), hl.Row(r>>1)
		} else {
			s, d = lh.Row(r>>1), hh.Row(r>>1)
		}
		liftRow(x, s, d, sch)
	}
}

// liftRow runs the full scheme on one source row: deinterleave into the
// destination pair (fused with the first lifting step's interior, which
// can read its source samples straight from the interleaved row), the
// remaining lifting steps in place, then the channel scale-and-rotate.
func liftRow(x, s, d []float64, sch *filter.LiftingScheme) {
	if liftRowVec(x, s, d, sch) {
		return
	}
	half := len(s)
	first := 0
	if len(sch.Steps) > 0 {
		liftRowDeinterleaveStep0(x, s, d, &sch.Steps[0])
		first = 1
	} else {
		for i := 0; i < half; i++ {
			s[i], d[i] = x[2*i], x[2*i+1]
		}
	}
	for si := first; si < len(sch.Steps); si++ {
		st := &sch.Steps[si]
		if st.ToS {
			liftRowStep(s, d, st, false)
		} else {
			liftRowStep(d, s, st, false)
		}
	}
	scaleRotateVec(s, sch.SScale, sch.SShift)
	scaleRotateVec(d, sch.DScale, sch.DShift)
}

// liftRowDeinterleaveStep0 deinterleaves x into (s, d) and applies the
// first lifting step in the same sweep: over the step's interior the
// source samples are read directly from the interleaved row (source
// channel phase 0 when the step updates d, phase 1 when it updates s),
// so the first step costs no separate pass. Border positions are
// finished afterwards through the same wrapped accumulator as every
// other step, once the source channel is fully populated.
func liftRowDeinterleaveStep0(x, s, d []float64, st *filter.LiftStep) {
	half := len(s)
	lo := st.Lo
	taps := st.Taps
	f := len(taps)
	i0, i1 := liftInterior(lo, f, half)
	for i := 0; i < i0; i++ {
		s[i], d[i] = x[2*i], x[2*i+1]
	}
	phase := 0 // step updates d, reads the even (s) phase
	if st.ToS {
		phase = 1 // step updates s, reads the odd (d) phase
	}
	switch {
	case f == 2 && !st.ToS:
		t0, t1 := taps[0], taps[1]
		for i := i0; i < i1; i++ {
			b := 2 * (i + lo)
			s[i] = x[2*i]
			d[i] = x[2*i+1] + (float64(t0*x[b]) + float64(t1*x[b+2]))
		}
	case f == 2 && st.ToS:
		t0, t1 := taps[0], taps[1]
		for i := i0; i < i1; i++ {
			b := 2*(i+lo) + 1
			d[i] = x[2*i+1]
			s[i] = x[2*i] + (float64(t0*x[b]) + float64(t1*x[b+2]))
		}
	case f == 1 && !st.ToS:
		t0 := taps[0]
		for i := i0; i < i1; i++ {
			s[i] = x[2*i]
			d[i] = x[2*i+1] + float64(t0*x[2*(i+lo)])
		}
	case f == 1 && st.ToS:
		t0 := taps[0]
		for i := i0; i < i1; i++ {
			d[i] = x[2*i+1]
			s[i] = x[2*i] + float64(t0*x[2*(i+lo)+1])
		}
	default:
		for i := i0; i < i1; i++ {
			var acc float64
			b := 2*(i+lo) + phase
			for j, t := range taps {
				acc += float64(t * x[b+2*j])
			}
			s[i], d[i] = x[2*i], x[2*i+1]
			if st.ToS {
				s[i] += acc
			} else {
				d[i] += acc
			}
		}
	}
	for i := i1; i < half; i++ {
		s[i], d[i] = x[2*i], x[2*i+1]
	}
	// Borders, with both channels now deinterleaved. The step never
	// mutates its own source channel, so the late application sees the
	// same source values an unfused pass would.
	if st.ToS {
		for i := 0; i < i0; i++ {
			s[i] += liftWrapAcc(d, taps, i+lo, half)
		}
		for i := i1; i < half; i++ {
			s[i] += liftWrapAcc(d, taps, i+lo, half)
		}
	} else {
		for i := 0; i < i0; i++ {
			d[i] += liftWrapAcc(s, taps, i+lo, half)
		}
		for i := i1; i < half; i++ {
			d[i] += liftWrapAcc(s, taps, i+lo, half)
		}
	}
}

// liftRowStep applies dst[i] += Σ_j taps[j]·src[(i+Lo+j) mod half] with
// the wrap confined to the borders: the interior runs branch-free, on
// liftVec where it can, and is specialized for the dominant one- to
// three-tap steps, which sum from the first product; wider steps, and
// every step when zero is set, sum from +0.
func liftRowStep(dst, src []float64, st *filter.LiftStep, zero bool) {
	half := len(dst)
	lo := st.Lo
	taps := st.Taps
	f := len(taps)
	i0, i1 := liftInterior(lo, f, half)
	for i := 0; i < i0; i++ {
		dst[i] += liftWrapAcc(src, taps, i+lo, half)
	}
	zero = zero || f > 3
	vec := false
	if i1-i0 >= liftVecMin {
		var x [maxLiftTaps][]float64
		for j := range taps {
			x[j] = src[i0+lo+j : i1+lo+j]
		}
		vec = liftVec(dst[i0:i1], dst[i0:i1], x[:f], taps, 1, zero)
	}
	switch {
	case vec:
	case zero:
		for i := i0; i < i1; i++ {
			var acc float64
			b := i + lo
			for j, t := range taps {
				acc += float64(t * src[b+j])
			}
			dst[i] += acc
		}
	case f == 1:
		t0 := taps[0]
		for i := i0; i < i1; i++ {
			dst[i] += float64(t0 * src[i+lo])
		}
	case f == 2:
		// Four-way unroll sharing the overlapping loads: consecutive
		// positions reuse three of four source samples. Per-position
		// arithmetic is unchanged (one fused accumulator, one add).
		t0, t1 := taps[0], taps[1]
		i := i0
		for ; i+4 <= i1; i += 4 {
			b := i + lo
			a0, a1, a2, a3, a4 := src[b], src[b+1], src[b+2], src[b+3], src[b+4]
			dst[i] += float64(t0*a0) + float64(t1*a1)
			dst[i+1] += float64(t0*a1) + float64(t1*a2)
			dst[i+2] += float64(t0*a2) + float64(t1*a3)
			dst[i+3] += float64(t0*a3) + float64(t1*a4)
		}
		for ; i < i1; i++ {
			dst[i] += float64(t0*src[i+lo]) + float64(t1*src[i+lo+1])
		}
	case f == 3:
		t0, t1, t2 := taps[0], taps[1], taps[2]
		i := i0
		for ; i+2 <= i1; i += 2 {
			b := i + lo
			a0, a1, a2, a3 := src[b], src[b+1], src[b+2], src[b+3]
			dst[i] += float64(t0*a0) + float64(t1*a1) + float64(t2*a2)
			dst[i+1] += float64(t0*a1) + float64(t1*a2) + float64(t2*a3)
		}
		for ; i < i1; i++ {
			b := i + lo
			dst[i] += float64(t0*src[b]) + float64(t1*src[b+1]) + float64(t2*src[b+2])
		}
	}
	for i := i1; i < half; i++ {
		dst[i] += liftWrapAcc(src, taps, i+lo, half)
	}
}

// liftInterior returns the [i0, i1) output range over which every tap
// index i+lo+j stays inside [0, half) — outside it the accesses wrap.
func liftInterior(lo, f, half int) (i0, i1 int) {
	i0 = -lo
	if i0 < 0 {
		i0 = 0
	}
	if i0 > half {
		i0 = half
	}
	i1 = half - lo - f + 1
	if i1 > half {
		i1 = half
	}
	if i1 < i0 {
		i1 = i0
	}
	return i0, i1
}

// liftWrapAcc is the border accumulator, same tap order as the interior.
func liftWrapAcc(src, taps []float64, base, n int) float64 {
	var acc float64
	for j, t := range taps {
		idx := (base + j) % n
		if idx < 0 {
			idx += n
		}
		acc += float64(t * src[idx])
	}
	return acc
}

// scaleRotateVec realizes the diagonal monomial of the scheme on one
// row: v[i] = c·v[(i+k) mod n], in place. Rotation and elementwise scale
// commute bitwise (the rotation only permutes which element each product
// reads), so the shift is folded into a single scaled sweep, spilling
// the wrapped elements — at most maxLiftShift of them — into a stack
// buffer. Shifts beyond the spill window fall back to the three-reversal
// rotation; the result matches filter.ApplyLifting1D's finishing step
// exactly either way.
func scaleRotateVec(v []float64, c float64, k int) {
	n := len(v)
	if k %= n; k < 0 {
		k += n
	}
	var tmp [maxLiftShift]float64
	switch {
	case k == 0:
		if c != 1 && !liftVec(v, v, nil, nil, c, false) {
			for i := range v {
				v[i] *= c
			}
		}
	case k <= maxLiftShift:
		// Left-rotate by small k: out[i] = c·v[i+k] ascending reads
		// ahead of the writes; the first k elements wrap to the tail.
		copy(tmp[:k], v[:k])
		if !liftVec(v[:n-k], v[k:], nil, nil, c, false) {
			for i := 0; i < n-k; i++ {
				v[i] = c * v[i+k]
			}
		}
		for i := 0; i < k; i++ {
			v[n-k+i] = c * tmp[i]
		}
	case n-k <= maxLiftShift:
		// Equivalent right-rotate by small m = n−k: descending writes
		// read below themselves; the last m sources wrap to the front.
		m := n - k
		copy(tmp[:m], v[k:])
		for i := n - 1; i >= m; i-- {
			v[i] = c * v[i-m]
		}
		for i := 0; i < m; i++ {
			v[i] = c * tmp[i]
		}
	default:
		reverseVec(v[:k])
		reverseVec(v[k:])
		reverseVec(v)
		if c != 1 {
			for i := range v {
				v[i] *= c
			}
		}
	}
}

func reverseVec(v []float64) {
	for a, b := 0, len(v)-1; a < b; a, b = a+1, b-1 {
		v[a], v[b] = v[b], v[a]
	}
}

// LiftColsRange lifts the column panel [c0, c1) of the vertically
// deinterleaved subband pair (s, d) in place: each column c is the
// polyphase pair (s[·][c], d[·][c]) of one length-2·s.Rows source
// column. Panels are processed through all lifting steps plus the final
// scale-and-rotate while resident in cache; disjoint column ranges touch
// disjoint memory, so they may run concurrently.
func LiftColsRange(s, d *image.Image, sch *filter.LiftingScheme, c0, c1 int) {
	for p0 := c0; p0 < c1; p0 += PanelWidth {
		p1 := p0 + PanelWidth
		if p1 > c1 {
			p1 = c1
		}
		for si := range sch.Steps {
			st := &sch.Steps[si]
			if st.ToS {
				liftColsStep(s, d, st, p0, p1)
			} else {
				liftColsStep(d, s, st, p0, p1)
			}
		}
		scaleRotateRows(s, sch.SScale, sch.SShift, p0, p1)
		scaleRotateRows(d, sch.DScale, sch.DShift, p0, p1)
	}
}

// liftColsStep is liftRowStep turned sideways: each destination row
// segment accumulates from the tap-offset source rows, in the sweep's
// forms, liftSegInterior where the step does not wrap and liftSegAcc
// where it does.
func liftColsStep(dst, src *image.Image, st *filter.LiftStep, p0, p1 int) {
	half := dst.Rows
	f := len(st.Taps)
	i0, i1 := liftInterior(st.Lo, f, half)
	var t [maxLiftTaps][]float64
	for i := 0; i < half; i++ {
		for j := range st.Taps {
			t[j] = src.RowSeg(modInt(i+st.Lo+j, half), p0, p1)
		}
		d := dst.RowSeg(i, p0, p1)
		if i >= i0 && i < i1 {
			liftSegInterior(d, t[:f], st.Taps)
		} else {
			liftSegAcc(d, t[:f], st.Taps)
		}
	}
}

// scaleRotateRows is scaleRotateVec down the row axis, confined to the
// [p0, p1) column segment so concurrent column ranges stay disjoint. The
// spilled rows cap the panel at PanelWidth columns, which LiftColsRange
// guarantees.
func scaleRotateRows(img *image.Image, c float64, k, p0, p1 int) {
	n := img.Rows
	w := p1 - p0
	if k %= n; k < 0 {
		k += n
	}
	switch {
	case k == 0:
		if c != 1 {
			for i := 0; i < n; i++ {
				r := img.RowSeg(i, p0, p1)
				for j := range r {
					r[j] *= c
				}
			}
		}
	case k <= maxLiftShift:
		var tmp [maxLiftShift][PanelWidth]float64
		for i := 0; i < k; i++ {
			copy(tmp[i][:w], img.RowSeg(i, p0, p1))
		}
		for i := 0; i < n-k; i++ {
			scaleSegInto(img.RowSeg(i, p0, p1), img.RowSeg(i+k, p0, p1), c, w)
		}
		for i := 0; i < k; i++ {
			scaleSegInto(img.RowSeg(n-k+i, p0, p1), tmp[i][:w], c, w)
		}
	case n-k <= maxLiftShift:
		var tmp [maxLiftShift][PanelWidth]float64
		m := n - k
		for i := 0; i < m; i++ {
			copy(tmp[i][:w], img.RowSeg(k+i, p0, p1))
		}
		for i := n - 1; i >= m; i-- {
			scaleSegInto(img.RowSeg(i, p0, p1), img.RowSeg(i-m, p0, p1), c, w)
		}
		for i := 0; i < m; i++ {
			scaleSegInto(img.RowSeg(i, p0, p1), tmp[i][:w], c, w)
		}
	default:
		reverseRowsSeg(img, 0, k, p0, p1)
		reverseRowsSeg(img, k, n, p0, p1)
		reverseRowsSeg(img, 0, n, p0, p1)
		if c != 1 {
			for i := 0; i < n; i++ {
				r := img.RowSeg(i, p0, p1)
				for j := range r {
					r[j] *= c
				}
			}
		}
	}
}

// scaleSegInto writes dst[j] = c·src[j] over the first w elements.
func scaleSegInto(dst, src []float64, c float64, w int) {
	if liftVec(dst[:w], src, nil, nil, c, false) {
		return
	}
	dst = dst[:w]
	src = src[:w]
	for j := range dst {
		dst[j] = c * src[j]
	}
}

func reverseRowsSeg(img *image.Image, a, b, p0, p1 int) {
	for i, j := a, b-1; i < j; i, j = i+1, j-1 {
		ri, rj := img.RowSeg(i, p0, p1), img.RowSeg(j, p0, p1)
		for c := range ri {
			ri[c], rj[c] = rj[c], ri[c]
		}
	}
}
