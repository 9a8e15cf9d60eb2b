package kernel

// pairFunc writes the interior outputs of a synthesis row four pairs at
// a time: every block of pairs (2k, 2k+1), k in [m, m+4), with
// 2m+8 <= b, merged from the L half l and the H half h under the RecLo
// filter lo and the RecHi filter hi. It returns the first pair it left
// for the scalar tail.
//
// Every output is summed in registers as rowSynth documents: +0, the
// extra even RecLo tap of an odd length, the RecLo taps by descending t
// (ascending source index), then the RecHi taps the same way. The
// unrolled variants for the measured equal lengths keep exactly that order
// per output; they only hoist the taps into locals and load each
// source sample of a block once for the four pairs that share it.
type pairFunc func(out, l, h, lo, hi []float64, m, b int) int

// pickPairs selects the interior loop for a RecLo/RecHi pair: an
// unrolled loop for the equal lengths of the banks the benchmarks time
// (haar 2, db8 8, rbio4.4 9), the generic loop for every other pair.
func pickPairs(lo, hi []float64) pairFunc {
	if len(lo) == len(hi) {
		switch len(lo) {
		case 2:
			return mergePairs2
		case 8:
			return mergePairs8
		case 9:
			return mergePairs9
		}
	}
	return mergePairs
}

// mergePairs is the generic interior loop, for any pair of lengths.
func mergePairs(out, l, h, lo, hi []float64, m, b int) int {
	for ; 2*m+8 <= b; m += 4 {
		var e0, o0, e1, o1, e2, o2, e3, o3 float64
		for ch := 0; ch < 2; ch++ {
			c, f := l, lo
			if ch == 1 {
				c, f = h, hi
			}
			t, to := (len(f)-1)/2, len(f)/2-1
			if t > to {
				// Odd filter length: the even outputs have one more tap.
				w := f[2*t]
				cc := c[m-t : m-t+4]
				e0 += w * cc[0]
				e1 += w * cc[1]
				e2 += w * cc[2]
				e3 += w * cc[3]
				t--
			}
			for ; t >= 0; t-- {
				we, wo := f[2*t], f[2*t+1]
				cc := c[m-t : m-t+4]
				v0, v1, v2, v3 := cc[0], cc[1], cc[2], cc[3]
				e0 += we * v0
				o0 += wo * v0
				e1 += we * v1
				o1 += wo * v1
				e2 += we * v2
				o2 += wo * v2
				e3 += we * v3
				o3 += wo * v3
			}
		}
		o8 := out[2*m : 2*m+8]
		o8[0], o8[1], o8[2], o8[3] = e0, o0, e1, o1
		o8[4], o8[5], o8[6], o8[7] = e2, o2, e3, o3
	}
	return m
}

// The unrolled loops below take a block's sources c[m-te .. m+3],
// te = (f-1)/2, as x0.. from the L half and y0.. from the H half, and
// run the taps t = te .. 0 in the generic loop's order: tap t of pair
// m+q reads x_{q+te-t}, so each sample is loaded once per block.

func mergePairs2(out, l, h, lo, hi []float64, m, b int) int {
	l0, l1 := lo[0], lo[1]
	h0, h1 := hi[0], hi[1]
	for ; 2*m+8 <= b; m += 4 {
		x := l[m : m+4]
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		y := h[m : m+4]
		y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
		var e0, o0, e1, o1, e2, o2, e3, o3 float64
		e0 += l0 * x0
		o0 += l1 * x0
		e1 += l0 * x1
		o1 += l1 * x1
		e2 += l0 * x2
		o2 += l1 * x2
		e3 += l0 * x3
		o3 += l1 * x3
		e0 += h0 * y0
		o0 += h1 * y0
		e1 += h0 * y1
		o1 += h1 * y1
		e2 += h0 * y2
		o2 += h1 * y2
		e3 += h0 * y3
		o3 += h1 * y3
		o8 := out[2*m : 2*m+8]
		o8[0], o8[1], o8[2], o8[3] = e0, o0, e1, o1
		o8[4], o8[5], o8[6], o8[7] = e2, o2, e3, o3
	}
	return m
}

func mergePairs8(out, l, h, lo, hi []float64, m, b int) int {
	l0, l1, l2, l3, l4, l5, l6, l7 := lo[0], lo[1], lo[2], lo[3], lo[4], lo[5], lo[6], lo[7]
	h0, h1, h2, h3, h4, h5, h6, h7 := hi[0], hi[1], hi[2], hi[3], hi[4], hi[5], hi[6], hi[7]
	for ; 2*m+8 <= b; m += 4 {
		x := l[m-3 : m+4]
		x0, x1, x2, x3, x4, x5, x6 := x[0], x[1], x[2], x[3], x[4], x[5], x[6]
		y := h[m-3 : m+4]
		y0, y1, y2, y3, y4, y5, y6 := y[0], y[1], y[2], y[3], y[4], y[5], y[6]
		var e0, o0, e1, o1, e2, o2, e3, o3 float64
		e0 += l6 * x0
		o0 += l7 * x0
		e1 += l6 * x1
		o1 += l7 * x1
		e2 += l6 * x2
		o2 += l7 * x2
		e3 += l6 * x3
		o3 += l7 * x3
		e0 += l4 * x1
		o0 += l5 * x1
		e1 += l4 * x2
		o1 += l5 * x2
		e2 += l4 * x3
		o2 += l5 * x3
		e3 += l4 * x4
		o3 += l5 * x4
		e0 += l2 * x2
		o0 += l3 * x2
		e1 += l2 * x3
		o1 += l3 * x3
		e2 += l2 * x4
		o2 += l3 * x4
		e3 += l2 * x5
		o3 += l3 * x5
		e0 += l0 * x3
		o0 += l1 * x3
		e1 += l0 * x4
		o1 += l1 * x4
		e2 += l0 * x5
		o2 += l1 * x5
		e3 += l0 * x6
		o3 += l1 * x6
		e0 += h6 * y0
		o0 += h7 * y0
		e1 += h6 * y1
		o1 += h7 * y1
		e2 += h6 * y2
		o2 += h7 * y2
		e3 += h6 * y3
		o3 += h7 * y3
		e0 += h4 * y1
		o0 += h5 * y1
		e1 += h4 * y2
		o1 += h5 * y2
		e2 += h4 * y3
		o2 += h5 * y3
		e3 += h4 * y4
		o3 += h5 * y4
		e0 += h2 * y2
		o0 += h3 * y2
		e1 += h2 * y3
		o1 += h3 * y3
		e2 += h2 * y4
		o2 += h3 * y4
		e3 += h2 * y5
		o3 += h3 * y5
		e0 += h0 * y3
		o0 += h1 * y3
		e1 += h0 * y4
		o1 += h1 * y4
		e2 += h0 * y5
		o2 += h1 * y5
		e3 += h0 * y6
		o3 += h1 * y6
		o8 := out[2*m : 2*m+8]
		o8[0], o8[1], o8[2], o8[3] = e0, o0, e1, o1
		o8[4], o8[5], o8[6], o8[7] = e2, o2, e3, o3
	}
	return m
}

// mergePairs9 starts each channel with its extra even tap (t = 4).
func mergePairs9(out, l, h, lo, hi []float64, m, b int) int {
	l0, l1, l2, l3, l4, l5, l6, l7, l8 := lo[0], lo[1], lo[2], lo[3], lo[4], lo[5], lo[6], lo[7], lo[8]
	h0, h1, h2, h3, h4, h5, h6, h7, h8 := hi[0], hi[1], hi[2], hi[3], hi[4], hi[5], hi[6], hi[7], hi[8]
	for ; 2*m+8 <= b; m += 4 {
		x := l[m-4 : m+4]
		x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
		y := h[m-4 : m+4]
		y0, y1, y2, y3, y4, y5, y6, y7 := y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7]
		var e0, o0, e1, o1, e2, o2, e3, o3 float64
		e0 += l8 * x0
		e1 += l8 * x1
		e2 += l8 * x2
		e3 += l8 * x3
		e0 += l6 * x1
		o0 += l7 * x1
		e1 += l6 * x2
		o1 += l7 * x2
		e2 += l6 * x3
		o2 += l7 * x3
		e3 += l6 * x4
		o3 += l7 * x4
		e0 += l4 * x2
		o0 += l5 * x2
		e1 += l4 * x3
		o1 += l5 * x3
		e2 += l4 * x4
		o2 += l5 * x4
		e3 += l4 * x5
		o3 += l5 * x5
		e0 += l2 * x3
		o0 += l3 * x3
		e1 += l2 * x4
		o1 += l3 * x4
		e2 += l2 * x5
		o2 += l3 * x5
		e3 += l2 * x6
		o3 += l3 * x6
		e0 += l0 * x4
		o0 += l1 * x4
		e1 += l0 * x5
		o1 += l1 * x5
		e2 += l0 * x6
		o2 += l1 * x6
		e3 += l0 * x7
		o3 += l1 * x7
		e0 += h8 * y0
		e1 += h8 * y1
		e2 += h8 * y2
		e3 += h8 * y3
		e0 += h6 * y1
		o0 += h7 * y1
		e1 += h6 * y2
		o1 += h7 * y2
		e2 += h6 * y3
		o2 += h7 * y3
		e3 += h6 * y4
		o3 += h7 * y4
		e0 += h4 * y2
		o0 += h5 * y2
		e1 += h4 * y3
		o1 += h5 * y3
		e2 += h4 * y4
		o2 += h5 * y4
		e3 += h4 * y5
		o3 += h5 * y5
		e0 += h2 * y3
		o0 += h3 * y3
		e1 += h2 * y4
		o1 += h3 * y4
		e2 += h2 * y5
		o2 += h3 * y5
		e3 += h2 * y6
		o3 += h3 * y6
		e0 += h0 * y4
		o0 += h1 * y4
		e1 += h0 * y5
		o1 += h1 * y5
		e2 += h0 * y6
		o2 += h1 * y6
		e3 += h0 * y7
		o3 += h1 * y7
		o8 := out[2*m : 2*m+8]
		o8[0], o8[1], o8[2], o8[3] = e0, o0, e1, o1
		o8[4], o8[5], o8[6], o8[7] = e2, o2, e3, o3
	}
	return m
}
