package kernel

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// rowFunc filters one even-length row x by the lo/hi filter pair and
// decimates by two into dLo/dHi (each len(x)/2).
type rowFunc func(x, lo, hi, dLo, dHi []float64, ext filter.Extension)

// AnalyzeRowsRange row-filters rows [r0, r1) of src by both channels of
// bank and decimates the columns by two into l and h (each src.Rows ×
// src.Cols/2). It is the fast-path equivalent of wavelet.AnalyzeRows
// restricted to a row range, on the row filter of AnalyzeLevelRange
// (window.filterRow). Outputs are bit-identical to the reference (see
// the package comment).
func AnalyzeRowsRange(l, h, src *image.Image, bank *filter.Bank, ext filter.Extension, r0, r1 int) {
	ring := GetRing()
	w := rowWindow(bank, ext, src.Cols/2, ring)
	for r := r0; r < r1; r++ {
		w.filterRow(src.Row(r), l.Row(r), h.Row(r))
	}
	PutRing(ring)
}

// AnalyzeRow filters one even-length row by the bank's analysis pair and
// decimates by two into dLo/dHi (each len(x)/2), on the same row filter
// as AnalyzeRowsRange. Exported for transforms built on the kernel layer
// outside the pyramid dispatch (the Walsh–Hadamard cascade).
func AnalyzeRow(x []float64, bank *filter.Bank, ext filter.Extension, dLo, dHi []float64) {
	ring := GetRing()
	w := rowWindow(bank, ext, len(x)/2, ring)
	w.filterRow(x, dLo, dHi)
	PutRing(ring)
}

// rowWindow returns a window with no slots, for filtering rows of 2·n
// samples outside a level sweep, its scratch in ring.
func rowWindow(bank *filter.Bank, ext filter.Extension, n int, ring *Ring) window {
	w := window{bank: bank, ext: ext, n: n, f: max(len(bank.DecLo), len(bank.DecHi))}
	w.reserve(ring)
	return w
}

// pickRow selects the row kernel of the rows the tap-view filter does
// not take (see window.filterRow): the fused generic kernel for
// equal-length banks, and the per-channel split kernel when the analysis
// channels have different lengths (biorthogonal banks).
func pickRow(bank *filter.Bank) rowFunc {
	if len(bank.DecHi) != len(bank.DecLo) {
		return rowsSplit
	}
	return rowsGeneric
}

// rowsSplit handles analysis pairs of different channel lengths by
// running each channel as its own pass, each mirroring
// wavelet.AnalyzeStep exactly (the interior/border split depends on the
// channel's own filter length).
func rowsSplit(x, lo, hi, dLo, dHi []float64, ext filter.Extension) {
	rowChannel(x, lo, dLo, ext)
	rowChannel(x, hi, dHi, ext)
}

func rowChannel(x, h, dst []float64, ext filter.Extension) {
	n := len(x)
	f := len(h)
	half := n / 2
	interior := (n - f) / 2
	if n < f {
		interior = -1 // truncating division mishandles n-f = -1
	}
	for i := 0; i <= interior; i++ {
		xx := x[2*i : 2*i+f]
		var a float64
		for k, v := range xx {
			a += float64(h[k] * v)
		}
		dst[i] = a
	}
	for i := interior + 1; i < half; i++ {
		var a float64
		for k := 0; k < f; k++ {
			j, ok := ext.Index(2*i+k, n)
			if ok {
				a += float64(h[k] * x[j])
			}
		}
		dst[i] = a
	}
}

// rowsGeneric mirrors wavelet.AnalyzeStep exactly (interior/border
// split, ext.Index at the borders) with the lo and hi channels fused
// into one pass over x.
func rowsGeneric(x, lo, hi, dLo, dHi []float64, ext filter.Extension) {
	n := len(x)
	f := len(lo)
	half := n / 2
	interior := (n - f) / 2
	if n < f {
		interior = -1 // truncating division mishandles n-f = -1
	}
	for i := 0; i <= interior; i++ {
		xx := x[2*i : 2*i+f]
		var a, d float64
		for k, v := range xx {
			a += float64(lo[k] * v)
			d += float64(hi[k] * v)
		}
		dLo[i] = a
		dHi[i] = d
	}
	for i := interior + 1; i < half; i++ {
		var a, d float64
		for k := 0; k < f; k++ {
			j, ok := ext.Index(2*i+k, n)
			if ok {
				v := x[j]
				a += float64(lo[k] * v)
				d += float64(hi[k] * v)
			}
		}
		dLo[i] = a
		dHi[i] = d
	}
}
