package wavelet

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet/kernel"
)

// Tolerance-gated lifting dispatch. The forward transform has two tiers,
// and LiftingFor is the one rule that picks between them:
//
//	fused convolution    the default — bit-identical to the reference (§11)
//	lifting              opt-in via a drift tolerance, periodic only
//
// The lifting tier halves the arithmetic by running the bank's factored
// predict/update scheme (internal/filter/lifting.go) as fused in-place
// sweeps (internal/wavelet/kernel/lifting.go). Because lifting reorders
// floating-point accumulation, it is never selected implicitly: callers
// must state the drift they will accept, and the tier engages only when
// that tolerance covers the scheme's advertised Eps. A tolerance of 0 —
// or any combination the lifting tier cannot serve exactly (non-periodic
// extension, a bank whose factorization degenerates) — stays on the
// convolution tier, keeping every golden digest bit-identical.

// LiftingFor returns the lifting scheme the tolerance-gated tier would
// use for the combination, or nil when the fused convolution tier
// serves it: tol must exceed 0 and cover the scheme's Eps, the
// extension must be Periodic (the polyphase factorization is an identity
// of circular convolution only), and the bank must factor. NaN and
// negative tolerances never dispatch lifting.
func LiftingFor(bank *filter.Bank, ext filter.Extension, tol float64) *filter.LiftingScheme {
	if !(tol > 0) || ext != filter.Periodic {
		return nil
	}
	sch, err := kernel.LiftingScheme(bank)
	if err != nil || sch.Eps > tol {
		return nil
	}
	return sch
}

// DecomposeTol is Decompose with an explicit drift tolerance: when the
// bank, extension, and tolerance admit the lifting tier, the transform
// runs through the fused lifting sweeps and may differ from the
// reference by at most tol (relative, enforced by the drift-bound
// property suite); otherwise it is exactly Decompose, bit-identical
// default included. DecomposeTol(im, bank, ext, levels, 0) ≡
// Decompose(im, bank, ext, levels).
func DecomposeTol(im *image.Image, bank *filter.Bank, ext filter.Extension, levels int, tol float64) (*Pyramid, error) {
	if err := CheckDecomposable(im.Rows, im.Cols, levels); err != nil {
		return nil, err
	}
	p := NewPyramid(im.Rows, im.Cols, bank, ext, levels)
	DecomposeRanges(p, im, LiftingFor(bank, ext, tol), inline)
	return p, nil
}

// NewDecomposerTol is NewDecomposer with a drift tolerance: the lifting
// scheme is resolved once here (factorization is cached per bank), so
// the steady-state Decompose calls stay allocation-free. With tol 0 the
// decomposer is exactly NewDecomposer's bit-identical convolution tier.
//
//wavelint:coldpath constructor, resolves the factorization once
func NewDecomposerTol(bank *filter.Bank, ext filter.Extension, levels int, tol float64) *Decomposer {
	d := NewDecomposer(bank, ext, levels)
	d.sweep.sch = LiftingFor(bank, ext, tol)
	return d
}
