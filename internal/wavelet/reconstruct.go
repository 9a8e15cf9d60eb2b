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
// core.ParallelReconstruct; run decides where each level's ranges
// execute. Each level is one pass of the fused synthesis sweep
// (kernel.SynthesizeLevelRange) over ranges of the level's output rows:
// every output row is column-synthesized from the level's subbands into
// a one-row scratch and merged straight into place, so no full-size L/H
// intermediate exists and the runner is called once per level. Only the
// returned image and the driver's level state are allocated: the LL
// chain between levels ping-pongs in a pooled kernel.Arena, a range
// that covers a whole level uses the arena's ring, and split ranges take
// rings from the kernel pool. The pyramid is validated by
// CheckReconstructable on the calling goroutine before run is first
// called.
func ReconstructRanges(p *Pyramid, run RangeRunner) *image.Image {
	CheckReconstructable(p)
	last := len(p.Levels) - 1
	if last < 0 {
		return p.Approx
	}
	ar := kernel.GetArena()
	defer kernel.PutArena(ar)
	s := &synthLevel{ar: ar, bank: p.Bank, ext: p.Ext}
	body := s.rows
	cur := p.Approx
	for l, d := range p.Levels {
		r, c := 2*cur.Rows, 2*cur.Cols
		var out *image.Image
		if l == last {
			out = image.New(r, c)
		} else {
			// The largest intermediate (level last-1) takes slot 0, the
			// slot Decompose sizes for its largest LL, so alternating
			// transforms on one pooled arena stop growing it after one
			// round.
			out = ar.LL((last-1-l)%2, r, c)
		}
		s.src, s.d, s.out = cur, d, out
		run(r, body)
		cur = out
	}
	return cur
}

// synthLevel is the state of the level ReconstructRanges is on, read by
// its range body.
type synthLevel struct {
	ar       *kernel.Arena
	bank     *filter.Bank
	ext      filter.Extension
	src, out *image.Image
	d        DetailBands
}

// rows synthesizes output rows [r0, r1) of the level. A range that
// covers the whole level is the only range of its pass and uses the
// arena's ring; split ranges may run concurrently and take their own
// rings from the pool.
func (s *synthLevel) rows(r0, r1 int) {
	if r0 == 0 && r1 == s.out.Rows {
		kernel.SynthesizeLevelRange(s.out, s.src, s.d.LH, s.d.HL, s.d.HH, s.bank, s.ext, r0, r1, s.ar.Ring())
		return
	}
	ring := kernel.GetRing()
	kernel.SynthesizeLevelRange(s.out, s.src, s.d.LH, s.d.HL, s.d.HH, s.bank, s.ext, r0, r1, ring)
	kernel.PutRing(ring)
}
