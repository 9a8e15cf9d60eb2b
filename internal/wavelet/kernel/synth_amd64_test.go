//go:build amd64 && !purego

package kernel

import (
	"fmt"
	"math"
	"testing"
)

// TestCombineAVX2MatchesGo compares combineTerms' vector path with the
// Go loop by Float64bits, over 1–20 terms and every width 1–80, which
// covers no, one and several eight-column chunks with every tail.
func TestCombineAVX2MatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2")
	}
	for terms := 1; terms <= 20; terms++ {
		// Row k holds its non-finite samples in columns 3k..3k+2, which
		// no other row uses.
		x := make([][]float64, terms)
		for k := range x {
			x[k] = specialRow(80, int64(100*terms+k), 3*k, 3*k+1, 3*k+2)
		}
		w := specialRow(terms, int64(terms))
		w[terms/2] = 0
		for width := 1; width <= 80; width++ {
			want := make([]float64, width)
			got := make([]float64, width)
			for c := range got {
				got[c] = math.NaN()
			}
			combineCols(want, x, w, 0)
			combineTerms(got, x, w)
			requireBits(t, fmt.Sprintf("terms%d/width%d", terms, width), want, got)
		}
	}
}

// TestMergeAVX2MatchesGo compares mergeInterior's vector path with
// mergePairs by Float64bits, for every RecLo/RecHi length pair in 2–12
// and widths that give zero, one, two and many four-pair blocks.
func TestMergeAVX2MatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2")
	}
	for fl := 2; fl <= 12; fl++ {
		for fh := 2; fh <= 12; fh++ {
			lo, hi := specialRow(fl, int64(fl)), specialRow(fh, int64(50+fh))
			m := max((fl-1)/2, (fh-1)/2)
			for _, blocks := range []int{0, 1, 2, 9} {
				for extra := 0; extra < 8; extra++ {
					b := 2*m + 8*blocks + extra
					n := b/2 + 1
					// An output reads at most six consecutive samples
					// of each half; non-finite samples 14 apart, offset
					// by 7 between the halves, never share one.
					l := specialRow(n, int64(fl*100+fh), 0, 14, 28, 42)
					h := specialRow(n, int64(fh*100+fl), 7, 21, 35)
					want := make([]float64, b+1)
					got := make([]float64, b+1)
					for j := range want {
						want[j] = math.Inf(-1)
						got[j] = math.Inf(-1)
					}
					mw := mergePairs(want, l, h, lo, hi, m, b)
					mg := mergeInterior(got, l, h, lo, hi, m, b)
					name := fmt.Sprintf("lo%d/hi%d/b%d", fl, fh, b)
					if mw != mg {
						t.Fatalf("%s: mergeInterior returned %d, mergePairs %d", name, mg, mw)
					}
					requireBits(t, name, want, got)
				}
			}
		}
	}
}

// TestDeinterleaveAVX2MatchesGo compares deinterleave's vector path with
// the Go loop by Float64bits, for every half width 0–80 (no, one and
// several four-pair blocks with every tail), and checks that neither
// writes past the halves.
func TestDeinterleaveAVX2MatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2")
	}
	for m := 0; m <= 80; m++ {
		x := specialRow(2*m, int64(m), 1, 6, 11)
		var halves [4][]float64
		for k := range halves {
			halves[k] = make([]float64, m+1)
			for c := range halves[k] {
				halves[k][c] = math.Inf(-1)
			}
		}
		deinterleaveCols(halves[0][:m], halves[1][:m], x, 0)
		deinterleave(halves[2][:m], halves[3][:m], x)
		name := fmt.Sprintf("m%d", m)
		requireBits(t, name+"/even", halves[0], halves[2])
		requireBits(t, name+"/odd", halves[1], halves[3])
		if !math.IsInf(halves[2][m], -1) || !math.IsInf(halves[3][m], -1) {
			t.Fatalf("%s: deinterleave wrote past the halves", name)
		}
	}
}
