package kernel

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// maxLiftSteps bounds the steps of a scheme the fused lifting sweep can
// schedule with a fixed stage table. Catalog schemes top out at 9
// (sym8); LiftingScheme rejects anything longer.
const maxLiftSteps = 16

// LiftLevelRange computes output rows [i0, i1) of all four subbands of
// one lifting level of src (each src.Rows/2 × src.Cols/2) in one sweep:
// the fused form of LiftRowsRange followed by LiftColsRange on (ll, lh)
// and (hl, hh), writing each subband row once.
//
// The sweep streams virtual row pairs. Pair v is source rows 2p and
// 2p+1 with p = v mod src.Rows/2, so the periodic wrap of the column
// steps becomes a straight stream that may run past either end of the
// level. Each pair is row-lifted by liftRow into a slot of ring: the
// even row holds the column s channel of both images (ll | hl), the odd
// row the d channel (lh | hh). The column steps then run as a flat
// stage schedule over the slots, each lagging the stages it reads by
// its reach, and the output stages write ll, hl, lh and hh rows scaled
// and shifted from the slots the last steps finished (the very last
// step writes its two subbands directly). A range that
// covers the whole level meets its head rows again at its tail: it
// row-lifts each pair once, keeping the head pairs in extra slots, and
// each stage keeps the head rows it repeats rather than recomputing
// them.
//
// Every coefficient sees the operations the two-pass kernels apply to
// it: the same row-lifted values, then per step dst + (t0·a + t1·b …)
// where the step does not wrap (liftSegInterior) and a +0-started
// accumulator where it wraps (liftSegAcc), then c·x. So the result
// is bit-identical to the two-pass tier for any split of the level, and
// disjoint ranges may run concurrently, each recomputing its own halo.
// ring is resized as needed and must not be shared by concurrent calls.
//
//wavelint:hotpath
func LiftLevelRange(ll, lh, hl, hh, src *image.Image, sch *filter.LiftingScheme, i0, i1 int, ring *Ring) {
	if i0 >= i1 {
		return
	}
	n := src.Cols / 2
	var s liftSweep
	s.plan(sch, src.Rows/2, i0, i1)
	s.src, s.sch, s.w = src, sch, 2*n
	s.buf = ring.reserve(s.rows, n, 4*s.depth)
	s.ringRows = ring.taps
	for k := range s.ringRows {
		o := (k % (2 * s.depth)) * s.w
		s.ringRows[k] = s.buf[o : o+s.w]
	}
	end := i1 + max(s.outLag[0], s.outLag[1])
	s.base = s.depth - 1
	for t := s.a0; t < end; t += 2 {
		s.advance(t)
		s.advance(t + 1)
		for k := range s.stages[:s.run] {
			s.step2(&s.stages[k], t-s.stages[k].lag)
		}
		for u := t; u < t+2; u++ {
			if i := u - s.outLag[0]; i >= i0 && i < i1 {
				s.emit(0, i+sch.SShift, sch.SScale, ll.Row(i), hl.Row(i))
			}
			if i := u - s.outLag[1]; i >= i0 && i < i1 {
				s.emit(1, i+sch.DShift, sch.DScale, lh.Row(i), hh.Row(i))
			}
		}
	}
}

// advance moves the stream to position t and loads pair t if the range
// needs it.
//
//wavelint:hotpath
func (s *liftSweep) advance(t int) {
	if s.t, s.base = t, s.base+1; s.base == s.depth {
		s.base = 0
	}
	if t < s.b0 {
		s.load(t)
	}
}

// liftStage is one column step of the schedule: at stream position t
// it finishes virtual row t-lag of channel dst, if that row is in
// [a, b). The stream takes two positions per round, so each round
// offers the stage two consecutive rows.
type liftStage struct {
	st       *filter.LiftStep
	dst      int // 0: the s channel (even ring rows), 1: d (odd rows)
	lag      int
	a, b     int
	in0, in1 int // level positions where the step does not wrap
	kept     int // rows [a, a+kept) kept for their repeat half rows on
	keep     int // first buffer row of the kept rows
}

// liftSweep is the state of one LiftLevelRange call. Ring slot
// (v-a0) mod depth holds virtual pair v as its even row followed by its
// odd row, w samples each; extra slot e, after the ring, keeps the
// row-lifted pair a0+e for its second visit, and the stages' kept rows
// follow. At stream position t, base is (t-a0) mod depth, and
// ringRows[2·(base+depth-(t-v))+ch] is channel ch of each live pair v
// in (t-depth, t], with no division.
type liftSweep struct {
	src      *image.Image
	sch      *filter.LiftingScheme
	buf      []float64
	ringRows [][]float64 // channel k mod 2 of slot k/2 mod depth, k < 4·depth
	w        int         // samples per ring row: both row-lifted halves
	half     int         // rows per subband
	depth    int
	extra    int
	rows     int // buffer rows of w samples: ring, extra and kept rows
	t        int
	base     int
	a0, b0   int    // virtual pairs the range row-lifts
	outLag   [2]int // lags of the s and d output stages
	m        int
	run      int // stages the loop runs; the output stage runs the rest
	fuse     int // channel whose output stage runs the last step, or -1
	stages   [maxLiftSteps]liftStage
}

// plan builds the stage schedule of output rows [i0, i1). Lags run
// forward through the steps: a step trails the last writer of the
// channel it reads by its reach Lo+len(Taps)-1, never leads the last
// writer of its own channel, and trails every earlier reader of its
// channel far enough that it overwrites no row that reader still needs.
// The rows each stage must finish run backward from the outputs, each
// step widening the rows it needs of the channel it reads by its taps.
// The ring is as deep as the farthest read behind the stream position.
//
//wavelint:hotpath
func (s *liftSweep) plan(sch *filter.LiftingScheme, half, i0, i1 int) {
	s.half = half
	s.m = len(sch.Steps)
	var wlag [2]int
	reach := 0
	for k := range sch.Steps {
		st := &sch.Steps[k]
		g := &s.stages[k]
		g.st, g.dst = st, 1
		if st.ToS {
			g.dst = 0
		}
		f := len(st.Taps)
		lag := max(wlag[1-g.dst]+st.Lo+f-1, wlag[g.dst])
		for _, q := range s.stages[:k] {
			if q.dst != g.dst {
				lag = max(lag, q.lag-q.st.Lo)
			}
		}
		g.lag = lag
		wlag[g.dst] = lag
		reach = max(reach, lag-min(st.Lo, 0))
		g.in0, g.in1 = liftInterior(st.Lo, f, half)
	}
	s.outLag = [2]int{wlag[0] + sch.SShift, wlag[1] + sch.DShift}
	// The stream advances two positions per round, loading both pairs
	// before the stages run: one slot more than the reach.
	s.depth = max(reach, wlag[0], wlag[1]) + 2

	need := [2][2]int{{i0 + sch.SShift, i1 + sch.SShift}, {i0 + sch.DShift, i1 + sch.DShift}}
	for k := s.m - 1; k >= 0; k-- {
		g := &s.stages[k]
		g.a, g.b = need[g.dst][0], need[g.dst][1]
		r := &need[1-g.dst]
		r[0] = min(r[0], g.a+g.st.Lo)
		r[1] = max(r[1], g.b+g.st.Lo+len(g.st.Taps)-1)
	}
	s.a0 = min(need[0][0], need[1][0])
	s.b0 = max(need[0][1], need[1][1])
	s.extra = min(half, max(0, s.b0-half-s.a0))
	s.rows = 2 * (s.depth + s.extra)
	for k := range s.stages[:s.m] {
		g := &s.stages[k]
		g.kept, g.keep = min(half, max(0, g.b-half-g.a)), s.rows
		s.rows += g.kept
	}

	// The last step finishes the rows of its channel exactly when its
	// output stage reads them, and nothing reads them after: the output
	// stage runs the step and scales on the way out instead of writing
	// the slot.
	s.run, s.fuse = s.m, -1
	if s.m > 0 {
		s.run, s.fuse = s.m-1, s.stages[s.m-1].dst
	}
}

// slot returns live virtual pair v's ring slot: its even row, then its
// odd row.
//
//wavelint:hotpath
func (s *liftSweep) slot(v int) []float64 {
	k := s.base + s.depth - (s.t - v)
	if k >= s.depth {
		k -= s.depth
	}
	return s.buf[2*k*s.w : 2*(k+1)*s.w]
}

// row returns channel ch (0 even, 1 odd) of live virtual pair v.
//
//wavelint:hotpath
func (s *liftSweep) row(ch, v int) []float64 {
	return s.ringRows[2*(s.base+s.depth-(s.t-v))+ch]
}

// load row-lifts virtual pair v into its ring slot. Pair a0+u+half is
// pair a0+u again: the first extra pairs are kept in extra slots on
// their first visit and copied on the second.
//
//wavelint:hotpath
func (s *liftSweep) load(v int) {
	sl := s.slot(v)
	u := v - s.a0
	if u >= s.half {
		copy(sl, s.extraSlot(u%s.half))
		return
	}
	p := modInt(v, s.half)
	n := s.w / 2
	liftRow(s.src.Row(2*p), sl[:n], sl[n:2*n], s.sch)
	liftRow(s.src.Row(2*p+1), sl[2*n:3*n], sl[3*n:], s.sch)
	if u < s.extra {
		copy(s.extraSlot(u), sl)
	}
}

// extraSlot returns extra slot e.
//
//wavelint:hotpath
func (s *liftSweep) extraSlot(e int) []float64 {
	o := 2 * (s.depth + e) * s.w
	return s.buf[o : o+2*s.w]
}

// keptRow returns row u of the rows stage g keeps.
//
//wavelint:hotpath
func (s *liftSweep) keptRow(g *liftStage, u int) []float64 {
	o := (g.keep + u) * s.w
	return s.buf[o : o+s.w]
}

// step2 applies stage g to virtual rows v and v+1 where they are in
// its range: as one pair, sharing the source rows the two have in
// common, when both are interior rows the stage computes, and row by
// row otherwise.
//
//wavelint:hotpath
func (s *liftSweep) step2(g *liftStage, v int) {
	ok0, ok1 := v >= g.a && v < g.b, v+1 >= g.a && v+1 < g.b
	if p := modInt(v, s.half); ok0 && ok1 && v+1-g.a < s.half && p >= g.in0 && p+1 < g.in1 {
		st := g.st
		d0, d1 := s.row(g.dst, v), s.row(g.dst, v+1)
		var t [maxLiftTaps + 1][]float64
		for j := 0; j <= len(st.Taps); j++ {
			t[j] = s.row(1-g.dst, v+st.Lo+j)[:len(d0)]
		}
		liftSegInterior2(d0, d1, t[:len(st.Taps)+1], st.Taps)
		for u := v - g.a; u < min(v+2-g.a, g.kept); u++ {
			copy(s.keptRow(g, u), s.row(g.dst, g.a+u))
		}
		return
	}
	if ok0 {
		s.step(g, v)
	}
	if ok1 {
		s.step(g, v+1)
	}
}

// step applies stage g to virtual row v, in the form LiftColsRange
// gives that row's level position. A stage whose rows span more than
// the level meets each of its first rows again half rows on: it keeps
// them on the first visit and copies them on the second.
//
//wavelint:hotpath
func (s *liftSweep) step(g *liftStage, v int) {
	st := g.st
	d := s.row(g.dst, v)
	u := v - g.a
	if u >= s.half {
		copy(d, s.keptRow(g, u%s.half))
		return
	}
	var t [maxLiftTaps][]float64
	for j := range st.Taps {
		t[j] = s.row(1-g.dst, v+st.Lo+j)[:len(d)]
	}
	if p := modInt(v, s.half); p >= g.in0 && p < g.in1 {
		liftSegInterior(d, t[:len(st.Taps)], st.Taps)
	} else {
		liftSegAcc(d, t[:len(st.Taps)], st.Taps)
	}
	if u < g.kept {
		copy(s.keptRow(g, u), d)
	}
}

// emit writes one output row of channel ch, whose final values are
// virtual row v, into its two subbands: lo from the row's first half,
// hi from its second, each scaled by c. When ch is the fused channel,
// it runs the last step on the way: lo[j] = c·(d[j] + acc), the step's
// add and the scale rounded as LiftColsRange rounds them. LiftColsRange
// skips a unit scale when the shift is 0; multiplying by 1 changes no
// bit of a number, so the scale is applied unconditionally here.
//
//wavelint:hotpath
func (s *liftSweep) emit(ch, v int, c float64, lo, hi []float64) {
	d := s.row(ch, v)
	n := len(lo)
	if ch != s.fuse {
		scaleSegInto(lo, d[:n], c, n)
		scaleSegInto(hi, d[n:], c, n)
		return
	}
	g := &s.stages[s.m-1]
	st := g.st
	f := len(st.Taps)
	var tl, th [maxLiftTaps][]float64
	for j := range st.Taps {
		x := s.row(1-ch, v+st.Lo+j)
		tl[j], th[j] = x[:n], x[n:]
	}
	p := modInt(v, s.half)
	interior := p >= g.in0 && p < g.in1
	liftSegScaled(lo, d[:n], tl[:f], st.Taps, c, interior)
	liftSegScaled(hi, d[n:], th[:f], st.Taps, c, interior)
}

// liftSegScaled is liftSegInterior (interior true) or liftSegAcc
// writing c·(d + step) to out instead of updating d.
//
//wavelint:hotpath
func liftSegScaled(out, d []float64, t [][]float64, taps []float64, c float64, interior bool) {
	if liftVec(out, d, t, taps, c, !interior || len(taps) > 3) {
		return
	}
	d = d[:len(out)]
	switch {
	case interior && len(taps) == 1:
		t0 := taps[0]
		x0 := t[0][:len(out)]
		for i := range out {
			out[i] = c * (d[i] + float64(t0*x0[i]))
		}
	case interior && len(taps) == 2:
		t0, t1 := taps[0], taps[1]
		x0, x1 := t[0][:len(out)], t[1][:len(out)]
		for i := range out {
			out[i] = c * (d[i] + (float64(t0*x0[i]) + float64(t1*x1[i])))
		}
	case interior && len(taps) == 3:
		t0, t1, t2 := taps[0], taps[1], taps[2]
		x0, x1, x2 := t[0][:len(out)], t[1][:len(out)], t[2][:len(out)]
		for i := range out {
			out[i] = c * (d[i] + (float64(t0*x0[i]) + float64(t1*x1[i]) + float64(t2*x2[i])))
		}
	default:
		for i := range out {
			var acc float64
			for j, tp := range taps {
				acc += float64(tp * t[j][i])
			}
			out[i] = c * (d[i] + acc)
		}
	}
}

// liftSegInterior is one destination row of a step away from the wrap:
// dst + (t0·a + t1·b …) for the one- to three-tap steps, and the
// +0-started accumulator of liftSegAcc for wider ones. liftColsStep
// runs it too.
//
//wavelint:hotpath
func liftSegInterior(d []float64, t [][]float64, taps []float64) {
	if liftVec(d, d, t, taps, 1, len(taps) > 3) {
		return
	}
	switch len(taps) {
	case 1:
		t0 := taps[0]
		x0 := t[0][:len(d)]
		for c := range d {
			d[c] += float64(t0 * x0[c])
		}
	case 2:
		t0, t1 := taps[0], taps[1]
		x0, x1 := t[0][:len(d)], t[1][:len(d)]
		for c := range d {
			d[c] += float64(t0*x0[c]) + float64(t1*x1[c])
		}
	case 3:
		t0, t1, t2 := taps[0], taps[1], taps[2]
		x0, x1, x2 := t[0][:len(d)], t[1][:len(d)], t[2][:len(d)]
		for c := range d {
			d[c] += float64(t0*x0[c]) + float64(t1*x1[c]) + float64(t2*x2[c])
		}
	default:
		liftSegAcc(d, t, taps)
	}
}

// liftSegInterior2 is liftSegInterior on two consecutive destination
// rows, whose sources are t[:len(taps)] and t[1:]. For the two-tap
// steps (every non-final catalog step with more than one tap) the
// middle source row is loaded once.
//
//wavelint:hotpath
func liftSegInterior2(d0, d1 []float64, t [][]float64, taps []float64) {
	if liftVec(d0, d0, t[:len(taps)], taps, 1, len(taps) > 3) {
		liftVec(d1, d1, t[1:], taps, 1, len(taps) > 3)
		return
	}
	switch len(taps) {
	case 2:
		t0, t1 := taps[0], taps[1]
		d1 = d1[:len(d0)]
		x0, x1, x2 := t[0][:len(d0)], t[1][:len(d0)], t[2][:len(d0)]
		for c := range d0 {
			a1 := x1[c]
			d0[c] += float64(t0*x0[c]) + float64(t1*a1)
			d1[c] += float64(t0*a1) + float64(t1*x2[c])
		}
	default:
		liftSegInterior(d0, t[:len(taps)], taps)
		liftSegInterior(d1, t[1:], taps)
	}
}

// liftSegAcc is one destination row with the accumulator started at +0:
// the form of every row where the step wraps, and of every row of a
// step wider than three taps.
//
//wavelint:hotpath
func liftSegAcc(d []float64, t [][]float64, taps []float64) {
	if liftVec(d, d, t, taps, 1, true) {
		return
	}
	for c := range d {
		var acc float64
		for j, tp := range taps {
			acc += float64(tp * t[j][c])
		}
		d[c] += acc
	}
}

// modInt is a mod n in [0, n).
//
//wavelint:hotpath
func modInt(a, n int) int {
	if uint(a) < uint(n) {
		return a
	}
	if a %= n; a < 0 {
		a += n
	}
	return a
}
