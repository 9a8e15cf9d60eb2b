//go:build amd64 && !purego

package kernel

// hasAVX2 reports whether the CPU and the OS support the AVX2 loops of
// the fused sweeps (synth_amd64.s). It is set once, at package init.
var hasAVX2 = detectAVX2()

// detectAVX2 checks CPUID for AVX and AVX2, and for OSXSAVE with XCR0
// enabling the XMM and YMM state, so the OS saves the YMM registers.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// combineAVX2 is combineTerms over len(d)/8 chunks of eight columns:
// each column starts at +0 and adds w[t]·x[t][c] in ascending t, one
// VMULPD and one VADDPD per term, so every lane repeats combineCols'
// scalar sequence. Every x[t] must hold len(d) samples and w len(x).
//
//go:noescape
func combineAVX2(d []float64, x [][]float64, w []float64)

// combinePairAVX2 is combinePairCols over len(d0)/8 chunks of eight
// columns: each chunk loads each term's eight source samples once, and
// four accumulators, two per row, start at +0 and add the term's
// products for row 0 and, unless bit t of lead is set, for row 1, one
// VMULPD and one VADDPD per term, row and lane, so every lane repeats
// its row's scalar sequence. d1 must hold len(d0) samples, every x[t]
// len(d0), w 2·len(x), and len(x) must not exceed maxPairTerms.
//
//go:noescape
func combinePairAVX2(d0, d1 []float64, x [][]float64, w []float64, lead uint64)

// mergeAVX2 is mergePairs over len(out)/16 blocks of eight pairs: l and
// h start at the first block's lowest source, (len(lo)-1)/2 and
// (len(hi)-1)/2 samples before its first pair, and hold every sample
// the blocks read. Each lane sums its output in mergePairs' order.
//
//go:noescape
func mergeAVX2(out, l, h, lo, hi []float64)

// deinterleaveAVX2 is deinterleave over len(e)/4 blocks of eight
// samples of x. o must hold len(e) samples and x 2·len(e).
//
//go:noescape
func deinterleaveAVX2(e, o, x []float64)

// combineTerms sets d[c] = Σ w[t]·x[t][c], started at +0 and summed in
// ascending t: eight columns at a time in AVX2, the rest in Go.
//
//wavelint:hotpath
func combineTerms(d []float64, x [][]float64, w []float64) {
	n := 0
	if hasAVX2 && len(x) > 0 {
		n = len(d) &^ 7
		d, w := d[:n], w[:len(x)]
		for _, xt := range x {
			_ = xt[:n]
		}
		combineAVX2(d, x, w)
	}
	combineCols(d, x, w, n)
}

// combinePair sets d0 and d1 to the column sums of a pair of output
// rows over one term list, as combinePairCols documents: eight columns
// at a time in AVX2, the rest in Go.
//
//wavelint:hotpath
func combinePair(d0, d1 []float64, x [][]float64, w []float64, lead uint64) {
	n := 0
	if hasAVX2 && len(x) > 0 {
		n = len(d0) &^ 7
		d0, d1, w := d0[:n], d1[:n], w[:2*len(x)]
		for _, xt := range x {
			_ = xt[:n]
		}
		combinePairAVX2(d0, d1, x, w, lead)
	}
	combinePairCols(d0, d1, x, w, lead, n)
}

// deinterleave sets e[m] = x[2m] and o[m] = x[2m+1] for m < len(e):
// four pairs at a time in AVX2, the rest in Go.
//
//wavelint:hotpath
func deinterleave(e, o, x []float64) {
	m := 0
	if hasAVX2 {
		m = len(e) &^ 3
		deinterleaveAVX2(e[:m], o[:m], x[:2*m])
	}
	deinterleaveCols(e, o, x, m)
}

// mergeInterior writes the interior blocks of pairs from m on, as
// mergePairs does, and returns the first pair it left: blocks of eight
// pairs in AVX2, then at most one block of four in Go.
//
//wavelint:hotpath
func mergeInterior(out, l, h, lo, hi []float64, m, b int) int {
	if hasAVX2 && len(lo) >= 2 && len(hi) >= 2 && 2*m+16 <= b {
		end := m + 8*((b-2*m)/16)
		mergeAVX2(out[2*m:2*end], l[m-(len(lo)-1)/2:end], h[m-(len(hi)-1)/2:end], lo, hi)
		m = end
	}
	return mergePairs(out, l, h, lo, hi, m, b)
}
