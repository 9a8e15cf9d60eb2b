package kernel

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// AnalyzeColsRange column-filters the [c0, c1) column segment of src by
// both channels of bank and decimates the rows by two into lo and hi
// (each src.Rows/2 × src.Cols). It is the fast-path equivalent of
// wavelet.AnalyzeCols restricted to a column range, on the column
// combine of AnalyzeLevelRange: each output row segment is one
// combineTerms per channel over the segments of the source rows under
// its present taps, which starts every coefficient at +0 and adds
// h[k]·row[2i+k] in ascending k, so outputs are bit-identical to the
// reference.
func AnalyzeColsRange(lo, hi, src *image.Image, bank *filter.Bank, ext filter.Extension, c0, c1 int) {
	fLo, fHi := bank.DecLo, bank.DecHi
	ring := GetRing()
	ring.reserve(0, 0, max(len(fLo), len(fHi)))
	x := ring.taps
	for i := 0; i < src.Rows/2; i++ {
		t := colTaps(x, src, ext, i, len(fLo), c0, c1)
		combineTerms(lo.RowSeg(i, c0, c1), x[:t], fLo[:t])
		if len(fHi) != len(fLo) {
			t = colTaps(x, src, ext, i, len(fHi), c0, c1)
		}
		combineTerms(hi.RowSeg(i, c0, c1), x[:t], fHi[:t])
	}
	PutRing(ring)
}

// colTaps points x[k] at the [c0, c1) segment of the source row under
// tap k of output row i for a length-f channel and returns how many taps
// are present: the first t, as window.gather argues.
func colTaps(x [][]float64, src *image.Image, ext filter.Extension, i, f, c0, c1 int) int {
	for k := 0; k < f; k++ {
		j, ok := ext.Index(2*i+k, src.Rows)
		if !ok {
			return k
		}
		x[k] = src.RowSeg(j, c0, c1)
	}
	return f
}
