//go:build !amd64 || purego

package kernel

// combineTerms sets d[c] = Σ w[t]·x[t][c], started at +0 and summed in
// ascending t.
//
//wavelint:hotpath
func combineTerms(d []float64, x [][]float64, w []float64) {
	combineCols(d, x, w, 0)
}

// combinePair sets d0 and d1 to the column sums of a pair of output
// rows over one term list, as combinePairCols documents.
//
//wavelint:hotpath
func combinePair(d0, d1 []float64, x [][]float64, w []float64, lead uint64) {
	combinePairCols(d0, d1, x, w, lead, 0)
}

// deinterleave sets e[m] = x[2m] and o[m] = x[2m+1] for m < len(e).
//
//wavelint:hotpath
func deinterleave(e, o, x []float64) {
	deinterleaveCols(e, o, x, 0)
}

// mergeInterior writes the interior blocks of pairs from m on and
// returns the first pair it left.
//
//wavelint:hotpath
func mergeInterior(out, l, h, lo, hi []float64, m, b int) int {
	return mergePairs(out, l, h, lo, hi, m, b)
}
