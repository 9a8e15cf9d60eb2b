package wavelet

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet/kernel"
)

// RangeRunner runs fn over [0, n) split into disjoint contiguous ranges
// and returns once every range has finished. The ranges may run
// concurrently; ReconstructRanges only hands it range bodies whose
// ranges write disjoint outputs.
type RangeRunner func(n int, fn func(lo, hi int))

// inline is the sequential RangeRunner: the whole range on the calling
// goroutine.
func inline(n int, fn func(lo, hi int)) { fn(0, n) }

// Reconstruct inverts Decompose, rebuilding the original image through
// the fused synthesis sweep on the calling goroutine. The
// result is bit-identical to ReconstructReference.
func Reconstruct(p *Pyramid) *image.Image { return ReconstructRanges(p, inline) }

// ReconstructReference runs the textbook reverse process of the paper's
// Figure 2 — per level, column synthesis of (LL, LH) and (HL, HH) into
// fresh L and H images, then row synthesis into a fresh parent — via
// the reference per-column kernels. It is the behavioral source of
// truth for Reconstruct and core.ParallelReconstruct, which must match
// it by math.Float64bits.
//
//wavelint:coldpath reference path allocates per level by design
func ReconstructReference(p *Pyramid) *image.Image {
	cur := p.Approx
	for _, d := range p.Levels {
		cur = Synthesize2D(&Subbands{LL: cur, LH: d.LH, HL: d.HL, HH: d.HH}, p.Bank, p.Ext)
	}
	return cur
}

// CheckReconstructable panics with a *UsageError unless the pyramid's
// bands chain: every level's LH, HL and HH share the shape of the
// approximation entering that level, and each level doubles it. The
// parallel inverse calls it on the calling goroutine before any fan-out,
// so a malformed pyramid is a recoverable panic there rather than an
// index fault inside a pool worker.
func CheckReconstructable(p *Pyramid) {
	if p.Approx == nil {
		panic(usage("Reconstruct", "Reconstruct of a pyramid without an approximation band"))
	}
	rows, cols := p.Approx.Rows, p.Approx.Cols
	for i, d := range p.Levels {
		for _, b := range []*image.Image{d.LH, d.HL, d.HH} {
			if b == nil {
				panic(usage("Reconstruct", "Reconstruct level %d is missing a detail band", i))
			}
			if b.Rows != rows || b.Cols != cols {
				panic(usage("Reconstruct", "Reconstruct level %d detail band is %dx%d, want %dx%d",
					i, b.Rows, b.Cols, rows, cols))
			}
		}
		rows, cols = 2*rows, 2*cols
	}
}

// ReconstructRanges is the one level driver behind Reconstruct and
// core.ParallelReconstruct; run decides where each range executes. Each
// level is one pass of the fused synthesis sweep
// (kernel.SynthesizeLevelRange) over ranges of the level's output rows:
// every output row is column-synthesized from the level's subbands into
// a small scratch and merged straight into place, so no full-size L/H
// intermediate exists. Only the returned image and the driver's level
// state are allocated: the LL chain between levels ping-pongs in a
// pooled kernel.Arena.
//
// The runner is called twice. The first call has two independent
// ranges: range 0 allocates the zeroed output image, and range 1 runs
// every level but the last, whole-level on the arena's ring. A runner
// that spreads them over two goroutines zeroes the output while the
// coarse levels run; a sequential one runs them in turn. The second
// call splits the last level's output rows; a range that covers the
// whole level uses the arena's ring, and split ranges take rings from
// the kernel pool. The pyramid is validated by CheckReconstructable on
// the calling goroutine before run is first called.
func ReconstructRanges(p *Pyramid, run RangeRunner) *image.Image {
	CheckReconstructable(p)
	last := len(p.Levels) - 1
	if last < 0 {
		return p.Approx
	}
	ar := kernel.GetArena()
	defer kernel.PutArena(ar)
	s := &synthLevel{ar: ar, bank: p.Bank, ext: p.Ext, levels: p.Levels, src: p.Approx, d: p.Levels[last], first: true}
	body := s.rows
	run(2, body)
	s.first = false
	run(s.out.Rows, body)
	return s.out
}

// synthLevel is the state of ReconstructRanges, read by its range body:
// d holds the last level's detail bands throughout.
type synthLevel struct {
	ar       *kernel.Arena
	bank     *filter.Bank
	ext      filter.Extension
	levels   []DetailBands
	src, out *image.Image
	d        DetailBands
	// first marks the first runner call, whose ranges are the output
	// allocation and the coarse levels rather than output rows.
	first bool
}

// rows runs [r0, r1) of the driver's current call. In the first call
// range 0 allocates the output, sized from d, and range 1 leaves the
// input of the last level in src; neither reads what the other writes.
// Otherwise it synthesizes output rows [r0, r1) of the last level: a
// range that covers the whole level is the only range of its pass and
// uses the arena's ring; split ranges may run concurrently and take
// their own rings from the pool.
func (s *synthLevel) rows(r0, r1 int) {
	if s.first {
		if r0 == 0 {
			s.out = image.New(2*s.d.LH.Rows, 2*s.d.LH.Cols)
		}
		if r1 == 2 {
			s.src = s.coarse()
		}
		return
	}
	if r0 == 0 && r1 == s.out.Rows {
		kernel.SynthesizeLevelRange(s.out, s.src, s.d.LH, s.d.HL, s.d.HH, s.bank, s.ext, r0, r1, s.ar.Ring())
		return
	}
	ring := kernel.GetRing()
	kernel.SynthesizeLevelRange(s.out, s.src, s.d.LH, s.d.HL, s.d.HH, s.bank, s.ext, r0, r1, ring)
	kernel.PutRing(ring)
}

// coarse synthesizes every level but the last, each whole-level on the
// arena's ring, and returns the approximation that enters the last.
// The largest intermediate (level last-1) takes slot 0, the slot
// Decompose sizes for its largest LL, so alternating transforms on one
// pooled arena stop growing it after one round.
func (s *synthLevel) coarse() *image.Image {
	cur := s.src
	last := len(s.levels) - 1
	for l, d := range s.levels[:last] {
		out := s.ar.LL((last-1-l)%2, 2*cur.Rows, 2*cur.Cols)
		kernel.SynthesizeLevelRange(out, cur, d.LH, d.HL, d.HH, s.bank, s.ext, 0, out.Rows, s.ar.Ring())
		cur = out
	}
	return cur
}
