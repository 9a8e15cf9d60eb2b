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

// requireGuard fails if anything wrote the -Inf sentinels guarded
// leaves past v.
func requireGuard(t *testing.T, label string, v []float64) {
	t.Helper()
	for k, g := range v[len(v) : len(v)+8] {
		if !math.IsInf(g, -1) {
			t.Fatalf("%s: sample %d past the end was written", label, len(v)+k)
		}
	}
}

// TestCombinePairAVX2MatchesGo compares combinePair's vector path with
// combinePairCols by Float64bits on every pairCases input and width
// 0–pairWidth (no, one and several eight-column chunks with every
// tail), and checks that it writes nothing past the rows.
func TestCombinePairAVX2MatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2")
	}
	pairCases(func(pc pairCase) {
		for n := 0; n <= pairWidth; n++ {
			name := fmt.Sprintf("%s/width%d", pc.name, n)
			want0, want1 := guarded(n), guarded(n)
			combinePairCols(want0, want1, pc.x, pc.w, pc.lead, 0)
			got0, got1 := guarded(n), guarded(n)
			combinePair(got0, got1, pc.x, pc.w, pc.lead)
			requireBits(t, name+"/0", want0, got0)
			requireBits(t, name+"/1", want1, got1)
			requireGuard(t, name+"/0", got0)
			requireGuard(t, name+"/1", got1)
		}
	})
}

// TestMergeAVX2BlocksMatchGo compares mergeInterior, eight-pair vector
// blocks then at most one four-pair Go block, with mergePairs by
// Float64bits, for every RecLo/RecHi length pair in 2–10 and every
// interior of 0–67 pairs, and checks that neither writes past the
// interior. A second pass runs positive taps over halves of -0 only, so
// every output sums -0 products and reads +0 only from a +0 start.
func TestMergeAVX2BlocksMatchGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2")
	}
	for fl := 2; fl <= 10; fl++ {
		for fh := 2; fh <= 10; fh++ {
			m := max((fl-1)/2, (fh-1)/2)
			for _, abs := range []bool{false, true} {
				lo, hi := specialRow(fl, int64(fl)), specialRow(fh, int64(50+fh))
				n := m + 68
				// An output reads at most five consecutive samples of
				// each half; non-finite samples 14 apart, offset by 7
				// between the halves, never share one.
				l := specialRow(n, int64(fl*100+fh), 0, 14, 28, 42, 56)
				h := specialRow(n, int64(fh*100+fl), 7, 21, 35, 49, 63)
				if abs {
					for k := range lo {
						lo[k] = math.Abs(lo[k])
					}
					for k := range hi {
						hi[k] = math.Abs(hi[k])
					}
					for k := range l {
						l[k], h[k] = math.Copysign(0, -1), math.Copysign(0, -1)
					}
				}
				for pairs := 0; pairs <= 67; pairs++ {
					b := 2*m + 2*pairs
					name := fmt.Sprintf("lo%d/hi%d/abs%v/pairs%d", fl, fh, abs, pairs)
					want, got := guarded(b), guarded(b)
					mw := mergePairs(want, l, h, lo, hi, m, b)
					mg := mergeInterior(got, l, h, lo, hi, m, b)
					if mw != mg {
						t.Fatalf("%s: mergeInterior returned %d, mergePairs %d", name, mg, mw)
					}
					requireBits(t, name, want[2*m:2*mw], got[2*m:2*mg])
					requireGuard(t, name, got)
					if abs {
						for j := 2 * m; j < 2*mg; j++ {
							if math.Float64bits(got[j]) != 0 {
								t.Fatalf("%s: output %d of -0 products is %g, want +0", name, j, got[j])
							}
						}
					}
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
