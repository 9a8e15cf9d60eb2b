package filter

import (
	"fmt"
	"math"
	"sync"
)

// This file factors a bank's analysis pair into a lifting scheme — the
// Daubechies–Sweldens polyphase factorization ("Factoring Wavelet
// Transforms into Lifting Steps", J. Fourier Anal. Appl. 4, 1998) that
// halves the arithmetic of the transform and lets the kernel layer fuse
// the 2-D passes into in-place sweeps (Barina et al., arXiv:1605.00561).
//
// Under this package's correlation convention the analysis pair acts on
// the even/odd polyphase components s[i] = x[2i], d[i] = x[2i+1] as
//
//	(a, b)ᵀ = M(z) · (s, d)ᵀ,   M = [[He, Ho], [Ge, Go]]
//
// where He[j] = DecLo[2j], Ho[j] = DecLo[2j+1] (and likewise Ge/Go from
// DecHi) are Laurent polynomials acting by correlation:
// (P s)[i] = Σ_j p[j]·s[i+j]. A Euclidean reduction on the low-pass row
// right-multiplies M by elementary matrices until it is diagonal with
// monomial entries,
//
//	M = diag(c_s·zᵏˢ, c_d·zᵏᵈ) · E_m⁻¹ ⋯ E_1⁻¹,
//
// so the transform becomes m short predict/update steps (each E⁻¹ adds a
// two-or-three-tap correlation of one channel into the other) followed by
// one scale-and-shift per channel. Every identity is an identity of the
// Laurent ring, so it also holds in the quotient ring mod (z^h − 1) —
// which is exactly periodic extension on the half-length signals. The
// lifting tier is therefore dispatched only under Periodic extension,
// where it computes the same transform as convolution up to
// floating-point reordering; the drift is bounded by the scheme's
// advertised Eps, measured at factorization time and enforced by the
// property suite in internal/wavelet.
//
// The factorization runs in float64 and is validated numerically against
// direct polyphase convolution before a scheme is ever returned: a bank
// whose reduction degenerates (non-monomial gcd, unstable quotients)
// yields an error and the caller falls back to the convolution tier.
// For haar and cdf5/3 the quotients are exact dyadic rationals, so the
// factored steps are the textbook ones with no approximation at all.

// LiftStep is one elementary lifting step. When ToS is true it updates
// the even (low) channel from the odd channel, s[i] += Σ_j Taps[j]·d[i+Lo+j];
// otherwise it predicts the odd channel from the even one,
// d[i] += Σ_j Taps[j]·s[i+Lo+j]. Indices wrap periodically on the
// half-length signal.
type LiftStep struct {
	// ToS selects the destination channel: true updates s from d,
	// false updates d from s.
	ToS bool
	// Lo is the index offset of Taps[0] relative to the output index.
	Lo int
	// Taps holds the step coefficients (typically one to three).
	Taps []float64
}

// LiftingScheme is a complete factored analysis transform: the lifting
// steps in application order, then a scale-and-rotate per channel
// (a[i] = SScale·s[i+SShift], b[i] = DScale·d[i+DShift], indices mod the
// half length).
type LiftingScheme struct {
	// Bank names the bank the scheme was factored from.
	Bank string
	// Steps are applied in order; each reads only the opposite channel,
	// so every step is an in-place pass with no intra-step dependence.
	Steps []LiftStep
	// SScale/SShift finish the low (approximation) channel.
	SScale float64
	SShift int
	// DScale/DShift finish the high (detail) channel.
	DScale float64
	DShift int
	// Eps is the advertised relative drift bound of the lifted transform
	// against the convolution reference under periodic extension: the
	// dispatch layer selects the lifting tier only when the caller's
	// tolerance is at least Eps. Measured at factorization time on
	// seeded probe signals with a two-decade safety margin.
	Eps float64
}

// MACs returns the multiply count of one scheme application per output
// coefficient pair (both channels), the cost-model counterpart of the
// convolution path's DecLen+RecLen taps.
func (s *LiftingScheme) MACs() int {
	n := 2 // the two channel scales
	for _, st := range s.Steps {
		n += len(st.Taps)
	}
	return n
}

// liftCache memoizes factorizations by bank name. Bank's fields are
// public, so a custom bank may reuse a name with other coefficients: an
// entry keeps a copy of the analysis pair it was factored from, a hit
// must match the bank's DecLo and DecHi bit for bit, and a mismatch
// factors the bank again and replaces the entry.
var liftCache sync.Map // string -> *liftEntry

type liftEntry struct {
	decLo, decHi []float64
	sch          *LiftingScheme
	err          error
}

// Lifting returns the lifting factorization of the bank's analysis pair,
// computing and caching it on first use. Banks whose polyphase matrix
// does not reduce to monomial form (or whose factored scheme fails the
// numerical validation against direct convolution) return an error; the
// dispatch layer treats that as "no lifting tier" and stays on the
// convolution kernels. A cache hit costs one comparison of the analysis
// pair and allocates nothing.
func Lifting(b *Bank) (*LiftingScheme, error) {
	if b == nil || len(b.DecLo) == 0 || len(b.DecHi) == 0 {
		return nil, fmt.Errorf("filter: lifting: bank has empty analysis pair")
	}
	if e, ok := liftCache.Load(b.Name); ok {
		ent := e.(*liftEntry)
		if sameBits(ent.decLo, b.DecLo) && sameBits(ent.decHi, b.DecHi) {
			return ent.sch, ent.err
		}
	}
	sch, err := factorLifting(b)
	liftCache.Store(b.Name, &liftEntry{
		decLo: append([]float64(nil), b.DecLo...),
		decHi: append([]float64(nil), b.DecHi...),
		sch:   sch, err: err,
	})
	return sch, err
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// laurent is a Laurent polynomial: c[i] is the coefficient of z^(lo+i).
// The zero polynomial has len(c) == 0.
type laurent struct {
	lo int
	c  []float64
}

func (p laurent) isZero() bool     { return len(p.c) == 0 }
func (p laurent) isMonomial() bool { return len(p.c) == 1 }

func (p laurent) maxAbs() float64 {
	m := 0.0
	for _, v := range p.c {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// trim drops leading and trailing coefficients with magnitude at most
// tol, normalizing the representation (and turning a numerically-zero
// polynomial into the canonical zero).
func (p laurent) trim(tol float64) laurent {
	a, b := 0, len(p.c)
	for a < b && math.Abs(p.c[a]) <= tol {
		a++
	}
	for b > a && math.Abs(p.c[b-1]) <= tol {
		b--
	}
	return laurent{lo: p.lo + a, c: p.c[a:b]}
}

func (p laurent) neg() laurent {
	out := make([]float64, len(p.c))
	for i, v := range p.c {
		out[i] = -v
	}
	return laurent{lo: p.lo, c: out}
}

// mulAdd returns u + t·v (polynomial product by convolution).
func mulAdd(u, t, v laurent) laurent {
	if t.isZero() || v.isZero() {
		return u
	}
	plo := t.lo + v.lo
	phi := plo + len(t.c) + len(v.c) - 2
	lo, hi := plo, phi
	if !u.isZero() {
		if u.lo < lo {
			lo = u.lo
		}
		if h := u.lo + len(u.c) - 1; h > hi {
			hi = h
		}
	}
	out := make([]float64, hi-lo+1)
	for i, uv := range u.c {
		out[u.lo+i-lo] = uv
	}
	for i, tv := range t.c {
		if tv == 0 {
			continue
		}
		for j, vv := range v.c {
			out[t.lo+i+j+v.lo-lo] += tv * vv
		}
	}
	return laurent{lo: lo, c: out}
}

// divmod divides a by b (b non-zero), returning quotient and remainder
// with len(r.c) < len(b.c). Classical long division from the top degree;
// the Laurent exponents ride along as offsets.
func divmod(a, b laurent) (q, r laurent) {
	if len(a.c) < len(b.c) {
		return laurent{}, a
	}
	ra := append([]float64(nil), a.c...)
	qc := make([]float64, len(a.c)-len(b.c)+1)
	lead := b.c[len(b.c)-1]
	for i := len(ra) - 1; i >= len(b.c)-1; i-- {
		f := ra[i] / lead
		qc[i-(len(b.c)-1)] = f
		if f == 0 {
			continue
		}
		for j, bv := range b.c {
			ra[i-len(b.c)+1+j] -= f * bv
		}
	}
	q = laurent{lo: a.lo - b.lo, c: qc}
	r = laurent{lo: a.lo, c: ra[:len(b.c)-1]}
	return q, r
}

// colOp is one elementary column operation recorded during the
// reduction: which == 0 means C1 += t·C2 (right-multiply by
// [[1,0],[t,1]]), which == 1 means C2 += t·C1 ([[1,t],[0,1]]).
type colOp struct {
	which int
	t     laurent
}

// polyphase splits a filter h (correlation convention, causal indices)
// into its even/odd Laurent components.
func polyphase(h []float64) (even, odd laurent) {
	var ec, oc []float64
	for k, v := range h {
		if k%2 == 0 {
			ec = append(ec, v)
		} else {
			oc = append(oc, v)
		}
	}
	return laurent{c: ec}, laurent{c: oc}
}

// factorLifting tries the Euclidean reduction under both tie-break
// orders (which component to reduce when degrees match changes the
// step chain: haar is shortest reducing ho first, db4 reducing he
// first) and keeps the cheapest scheme that validates.
func factorLifting(b *Bank) (*LiftingScheme, error) {
	var best *LiftingScheme
	var firstErr error
	for _, preferHo := range []bool{true, false} {
		sch, err := reduceLifting(b, preferHo)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || sch.MACs() < best.MACs() {
			best = sch
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// reduceLifting runs one Euclidean reduction pass and validates the
// resulting scheme numerically.
func reduceLifting(b *Bank, preferHo bool) (*LiftingScheme, error) {
	he, ho := polyphase(b.DecLo)
	ge, go_ := polyphase(b.DecHi)
	scale := math.Max(he.maxAbs(), ho.maxAbs())
	if scale == 0 {
		return nil, fmt.Errorf("filter: lifting %s: zero low-pass", b.Name)
	}
	tol := 1e-9 * scale

	he, ho = he.trim(tol), ho.trim(tol)
	ge, go_ = ge.trim(tol), go_.trim(tol)

	// Reduce the low-pass row (he, ho) to (monomial, 0) by elementary
	// column operations, applying the same operations to the high-pass
	// row as we go.
	var ops []colOp
	apply := func(op colOp) {
		ops = append(ops, op)
		if op.which == 0 {
			he = mulAdd(he, op.t, ho).trim(tol)
			ge = mulAdd(ge, op.t, go_).trim(tol)
		} else {
			ho = mulAdd(ho, op.t, he).trim(tol)
			go_ = mulAdd(go_, op.t, ge).trim(tol)
		}
	}
	one := laurent{c: []float64{1}}
	for iter := 0; !ho.isZero(); iter++ {
		if iter > 64 {
			return nil, fmt.Errorf("filter: lifting %s: Euclidean reduction did not terminate", b.Name)
		}
		if he.isZero() {
			// Move the surviving polynomial into the first column:
			// C1 += C2, then C2 -= C1.
			apply(colOp{which: 0, t: one})
			apply(colOp{which: 1, t: one.neg()})
			continue
		}
		// Reduce the longer component; ties go by preferHo.
		reduceHo := len(ho.c) > len(he.c) || (len(ho.c) == len(he.c) && preferHo)
		if reduceHo {
			q, _ := divmod(ho, he)
			apply(colOp{which: 1, t: q.neg()})
		} else {
			q, _ := divmod(he, ho)
			apply(colOp{which: 0, t: q.neg()})
		}
	}
	if !he.isMonomial() {
		return nil, fmt.Errorf("filter: lifting %s: polyphase gcd is not a monomial (%d taps)", b.Name, len(he.c))
	}
	if !go_.isMonomial() {
		return nil, fmt.Errorf("filter: lifting %s: reduced high-pass odd component is not a monomial (%d taps)", b.Name, len(go_.c))
	}
	// Eliminate the remaining lower-left entry: C1 += t·C2 with
	// t = -ge/go_ (exact — go_ is a monomial).
	if !ge.isZero() {
		t := laurent{lo: ge.lo - go_.lo, c: make([]float64, len(ge.c))}
		for i, v := range ge.c {
			t.c[i] = -v / go_.c[0]
		}
		apply(colOp{which: 0, t: t})
		if !he.isMonomial() || !ge.isZero() {
			return nil, fmt.Errorf("filter: lifting %s: final elimination left a non-diagonal matrix", b.Name)
		}
	}

	// M = diag(he, go_) · E_m⁻¹ ⋯ E_1⁻¹: each recorded op becomes one
	// runtime step with negated taps, applied in recorded order.
	sch := &LiftingScheme{
		Bank:   b.Name,
		SScale: he.c[0], SShift: he.lo,
		DScale: go_.c[0], DShift: go_.lo,
	}
	for _, op := range ops {
		inv := op.t.neg()
		if inv.isZero() {
			continue
		}
		sch.Steps = append(sch.Steps, LiftStep{
			ToS:  op.which == 1,
			Lo:   inv.lo,
			Taps: inv.c,
		})
	}

	drift, err := validateScheme(b, sch)
	if err != nil {
		return nil, err
	}
	// Advertise a two-decade safety margin over the probe drift (deeper
	// pyramids and larger images accumulate more reordering error than
	// the 1-D probes), floored well below any tolerance a caller would
	// reasonably request.
	sch.Eps = math.Max(1e-10, 100*drift)
	return sch, nil
}

// validateScheme applies the scheme to seeded probe signals and compares
// against direct polyphase convolution under periodic extension,
// returning the worst relative drift. Schemes further than 1e-7 from the
// reference are rejected outright — that is a failed factorization, not
// rounding.
func validateScheme(b *Bank, sch *LiftingScheme) (float64, error) {
	worst := 0.0
	for _, n := range []int{8, 32, 96} {
		rng := uint64(0x9E3779B97F4A7C15)
		x := make([]float64, n)
		for i := range x {
			rng = splitmix(rng)
			x[i] = float64(int64(rng>>11))/float64(1<<52) - 1 // [-1, 1)
		}
		half := n / 2
		aRef := make([]float64, half)
		bRef := make([]float64, half)
		for i := 0; i < half; i++ {
			var av, bv float64
			for k, hk := range b.DecLo {
				av += hk * x[(2*i+k)%n]
			}
			for k, gk := range b.DecHi {
				bv += gk * x[(2*i+k)%n]
			}
			aRef[i], bRef[i] = av, bv
		}
		s := make([]float64, half)
		d := make([]float64, half)
		for i := 0; i < half; i++ {
			s[i], d[i] = x[2*i], x[2*i+1]
		}
		ApplyLifting1D(s, d, sch)
		norm := 0.0
		for i := range aRef {
			norm = math.Max(norm, math.Max(math.Abs(aRef[i]), math.Abs(bRef[i])))
		}
		if norm == 0 {
			norm = 1
		}
		for i := range aRef {
			worst = math.Max(worst, math.Abs(s[i]-aRef[i])/norm)
			worst = math.Max(worst, math.Abs(d[i]-bRef[i])/norm)
		}
	}
	if worst > 1e-7 {
		return worst, fmt.Errorf("filter: lifting %s: factored scheme drifts %.3g from convolution (factorization unstable)", b.Name, worst)
	}
	return worst, nil
}

// ApplyLifting1D runs the scheme in place on a polyphase pair (s from
// the even samples, d from the odd), with periodic wrap on the half
// length. On return s holds the low-pass and d the high-pass
// coefficients. This is the executable definition of the scheme — the
// blocked 2-D kernels in internal/wavelet/kernel must match it — and the
// reference the validation and property tests check against.
func ApplyLifting1D(s, d []float64, sch *LiftingScheme) {
	half := len(s)
	if half == 0 {
		return
	}
	for _, st := range sch.Steps {
		dst, src := d, s
		if st.ToS {
			dst, src = s, d
		}
		for i := 0; i < half; i++ {
			var acc float64
			for j, t := range st.Taps {
				acc += float64(t * src[wrapIndex(i+st.Lo+j, half)])
			}
			dst[i] += acc
		}
	}
	scaleRotate(s, sch.SScale, sch.SShift)
	scaleRotate(d, sch.DScale, sch.DShift)
}

func wrapIndex(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// scaleRotate realizes the diagonal monomial: out[i] = c·in[i+k] mod n,
// in place (left-rotate by k, then scale).
func scaleRotate(v []float64, c float64, k int) {
	n := len(v)
	if k %= n; k != 0 {
		if k < 0 {
			k += n
		}
		reverseFloats(v[:k])
		reverseFloats(v[k:])
		reverseFloats(v)
	}
	if c != 1 {
		for i := range v {
			v[i] *= c
		}
	}
}

func reverseFloats(v []float64) {
	for a, b := 0, len(v)-1; a < b; a, b = a+1, b-1 {
		v[a], v[b] = v[b], v[a]
	}
}

// splitmix advances a SplitMix64 state (the same generator the fault
// plans use; reimplemented locally to keep filter dependency-free).
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
