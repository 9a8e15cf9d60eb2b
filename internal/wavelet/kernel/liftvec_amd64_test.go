//go:build amd64 && !purego

package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavelethpc/internal/filter"
)

// goLoops runs f with the AVX2 routines switched off, so liftVec and
// liftRowVec report false and every caller runs its Go loop.
func goLoops(f func()) {
	defer func(saved bool) { hasAVX2 = saved }(hasAVX2)
	hasAVX2 = false
	f()
}

// guarded returns n NaNs with eight -Inf sentinels past them, in its
// capacity, which the caller checks after a write of n.
func guarded(n int) []float64 {
	v := make([]float64, n+8)
	for k := range v {
		v[k] = math.Inf(-1)
		if k < n {
			v[k] = math.NaN()
		}
	}
	return v[:n]
}

// liftForms runs every form the lifting sweep puts on liftVec over
// destination d (width samples), sources x and taps tp, and returns
// each result by name: the in-place steps, the two-row step, the
// scaled outputs in and out of the interior, the plain scale, and
// scaleRotateVec's shifts.
func liftForms(d, d1 []float64, x [][]float64, tp []float64, c float64, width int) map[string][]float64 {
	f := len(tp)
	cut := func(rows [][]float64) [][]float64 {
		v := make([][]float64, len(rows))
		for k := range rows {
			v[k] = rows[k][:width]
		}
		return v
	}
	clone := func(v []float64) []float64 { return append(guarded(width)[:0], v[:width]...) }
	out := map[string][]float64{}
	v := clone(d)
	liftSegInterior(v, cut(x[:f]), tp)
	out["interior"] = v
	v, v1 := clone(d), clone(d1)
	liftSegInterior2(v, v1, cut(x), tp)
	out["interior2/0"], out["interior2/1"] = v, v1
	v = clone(d)
	liftSegAcc(v, cut(x[:f]), tp)
	out["acc"] = v
	for _, interior := range []bool{true, false} {
		v = guarded(width)
		liftSegScaled(v, d[:width], cut(x[:f]), tp, c, interior)
		out[fmt.Sprintf("scaled/interior=%v", interior)] = v
	}
	v = guarded(width)
	scaleSegInto(v, d, c, width)
	out["scale"] = v
	for k := -1; k <= maxLiftShift+1 && width > 0; k++ {
		v = clone(d)
		scaleRotateVec(v, c, k)
		out[fmt.Sprintf("rotate%d", k)] = v
	}
	return out
}

// TestLiftAVX2MatchesGo compares every form the lifting sweep runs on
// liftVec with its Go loop by Float64bits, for 1–maxLiftTaps taps,
// every width 0–80 (below liftVecMin both runs take the Go loop; from
// it on, two and more eight-sample chunks with every tail), and c = 1
// and c ≠ 1. The destination and each source row hold
// ±0 and subnormals, and their +Inf, NaN and -Inf in three columns no
// other row uses, so no sum meets two NaNs. The taps are normal numbers,
// or ±0 and subnormals with a zero tap that makes an Inf into the one
// NaN. A destination of −0 with every product −0 separates the sum that
// starts at the first product (−0) from the one that starts at +0 (+0),
// and the test checks that the Go loops do differ there.
func TestLiftAVX2MatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2")
	}
	type liftCase struct {
		name  string
		d, d1 []float64
		x     [][]float64
		taps  []float64
	}
	negZero := math.Copysign(0, -1)
	for f := 1; f <= maxLiftTaps; f++ {
		// Seeds equal mod 3 put every row's ±0 and subnormals in the
		// same columns, so the other columns sum normal products only.
		x := make([][]float64, f+1)
		for k := range x {
			x[k] = specialRow(80, int64(99*f+3*k), 3*k+6, 3*k+7, 3*k+8)
		}
		d := specialRow(80, int64(99*f+90), 0, 1, 2)
		d1 := specialRow(80, int64(99*f+93), 3, 4, 5)
		tiny := specialRow(f, int64(f))
		tiny[f/2] = 0

		// Every product −0: a positive tap on −0 or a negative one on +0.
		zd := make([]float64, 80)
		zx := make([][]float64, f+1)
		ztaps := make([]float64, f)
		for k := range zd {
			zd[k] = negZero
		}
		for j := range zx {
			zx[j] = make([]float64, 80)
			for k := range zx[j] {
				if j%2 == 0 {
					zx[j][k] = negZero
				}
			}
		}
		for j := range ztaps {
			ztaps[j] = float64(1 + j)
			if j%2 == 1 {
				ztaps[j] = -ztaps[j]
			}
		}

		cases := []liftCase{
			{"normal", d, d1, x, randImage(1, f, int64(f)).Row(0)},
			{"tiny", d, d1, x, tiny},
			{"-zero", zd, zd, zx, ztaps},
		}
		for width := 0; width <= 80; width++ {
			for _, c := range []float64{1, -0.375, 3e-310} {
				for _, tc := range cases {
					var want map[string][]float64
					goLoops(func() { want = liftForms(tc.d, tc.d1, tc.x, tc.taps, c, width) })
					got := liftForms(tc.d, tc.d1, tc.x, tc.taps, c, width)
					for form, w := range want {
						label := fmt.Sprintf("taps%d/width%d/c%g/%s/%s", f, width, c, tc.name, form)
						g := got[form]
						requireBits(t, label, w, g)
						for _, v := range g[width:cap(g)] {
							if !math.IsInf(v, -1) {
								t.Fatalf("%s: wrote past the output", label)
							}
						}
					}
					if tc.name == "-zero" && width > 0 {
						// The two orders must differ here, or this case
						// proves nothing.
						if math.Signbit(want["interior"][0]) != (f <= 3) || math.Signbit(want["acc"][0]) {
							t.Fatalf("taps%d: -0 case gives interior %g, acc %g", f, want["interior"][0], want["acc"][0])
						}
					}
				}
			}
		}
	}
}

// TestLiftRowVecMatchesGo compares liftRow on the vector routine with
// its Go loops by Float64bits, for random schemes of one to
// maxLiftTaps taps per step (so the first step and the later ones
// each sum from their first product and from +0), shifts of either
// sign, and every half width 1–80: rows on either side of liftVecMin,
// and step interiors under it in rows over it. Each row holds ±0 and
// subnormals plus either one NaN or Infs of both signs but no NaN, so
// every NaN that meets another in a sum has the same bits; a row of −0
// separates the two orders of summation.
func TestLiftRowVecMatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 120; trial++ {
		sch := &filter.LiftingScheme{}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			st := filter.LiftStep{ToS: rng.Intn(2) == 0, Lo: rng.Intn(9) - 4, Taps: make([]float64, 1+rng.Intn(maxLiftTaps))}
			for j := range st.Taps {
				st.Taps[j] = rng.NormFloat64()
			}
			sch.Steps = append(sch.Steps, st)
		}
		sch.SScale, sch.SShift = rng.NormFloat64(), rng.Intn(19)-5
		sch.DScale, sch.DShift = 1, rng.Intn(19)-5
		for half := 1; half <= 80; half++ {
			rows := map[string][]float64{
				// specialRow skips positions past the row: +Inf in
				// the first list, NaN in the second.
				"nan": specialRow(2*half, int64(trial*100+half), 2*half, 2*half/3),
				"inf": specialRow(2*half, int64(trial*100+half), half/2, 2*half, half),
				"-zero": func() []float64 {
					v := make([]float64, 2*half)
					for k := range v {
						v[k] = math.Copysign(0, -1)
					}
					return v
				}(),
			}
			for name, row := range rows {
				ws, wd := make([]float64, half), make([]float64, half)
				gs, gd := make([]float64, half), make([]float64, half)
				goLoops(func() { liftRow(row, ws, wd, sch) })
				liftRow(row, gs, gd, sch)
				label := fmt.Sprintf("trial%d/half%d/%s", trial, half, name)
				requireBits(t, label+"/s", ws, gs)
				requireBits(t, label+"/d", wd, gd)
			}
		}
	}
}
