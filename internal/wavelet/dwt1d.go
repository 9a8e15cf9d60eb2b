package wavelet

import (
	"fmt"

	"wavelethpc/internal/filter"
)

// Analyze1D performs one level of 1-D wavelet analysis, returning the
// approximation (low-pass) and detail (high-pass) coefficient vectors,
// each of half the input length. The input length must be even.
func Analyze1D(x []float64, bank *filter.Bank, ext filter.Extension) (approx, detail []float64) {
	approx = AnalyzeStep(x, bank.DecLo, ext, nil)
	detail = AnalyzeStep(x, bank.DecHi, ext, nil)
	return approx, detail
}

// Synthesize1D inverts Analyze1D, reconstructing the signal of length
// 2·len(approx) from one level of coefficients. approx and detail must
// have equal length.
func Synthesize1D(approx, detail []float64, bank *filter.Bank, ext filter.Extension) []float64 {
	if len(approx) != len(detail) {
		panic(usage("Synthesize1D", "Synthesize1D length mismatch %d vs %d", len(approx), len(detail)))
	}
	out := make([]float64, 2*len(approx))
	SynthesizeStep(approx, bank.RecLo, ext, out)
	SynthesizeStep(detail, bank.RecHi, ext, out)
	return out
}

// Decomposition1D holds a multi-level 1-D wavelet decomposition: the
// final approximation plus detail vectors ordered coarsest-first.
type Decomposition1D struct {
	// Approx is the level-L approximation (length n / 2^L).
	Approx []float64
	// Details[i] is the detail vector of level L-i; Details[0] is the
	// coarsest.
	Details [][]float64
	Bank    *filter.Bank
	Ext     filter.Extension
}

// Levels returns the number of decomposition levels.
func (d *Decomposition1D) Levels() int { return len(d.Details) }

// Decompose1D performs a levels-deep Mallat decomposition of x. The input
// length must be divisible by 2^levels.
func Decompose1D(x []float64, bank *filter.Bank, ext filter.Extension, levels int) (*Decomposition1D, error) {
	if levels < 1 {
		return nil, fmt.Errorf("wavelet: levels = %d, want >= 1", levels)
	}
	if !DivisiblePow2(len(x), levels) {
		return nil, fmt.Errorf("wavelet: length %d not divisible by 2^%d", len(x), levels)
	}
	d := &Decomposition1D{Bank: bank, Ext: ext, Details: make([][]float64, levels)}
	cur := x
	for l := 0; l < levels; l++ {
		a, det := Analyze1D(cur, bank, ext)
		d.Details[levels-1-l] = det
		cur = a
	}
	d.Approx = cur
	return d, nil
}

// Reconstruct1D inverts Decompose1D.
func Reconstruct1D(d *Decomposition1D) []float64 {
	cur := d.Approx
	for _, det := range d.Details {
		cur = Synthesize1D(cur, det, d.Bank, d.Ext)
	}
	return cur
}
