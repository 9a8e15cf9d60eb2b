package wavelet

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet/kernel"
)

// Decompose runs the full multi-resolution algorithm of the paper's
// Section 2 through the fused, arena-backed level sweep of
// internal/wavelet/kernel (DecomposeRanges). Every bank and extension
// takes this path, bit-identical to DecomposeReference.
func Decompose(im *image.Image, bank *filter.Bank, ext filter.Extension, levels int) (*Pyramid, error) {
	return DecomposeTol(im, bank, ext, levels, 0)
}

// NewPyramid allocates the shell of a levels-deep decomposition of a
// rows×cols image: zeroed detail bands (coarsest-first, the Levels
// convention) and approximation, ready to be filled in place by the
// fast-path kernels or the parallel drivers in internal/core. The
// dimensions must already be decomposable. Every forward entry point
// allocates its pyramid here on the calling goroutine before any range
// runs, so NewPyramid is where a bank without both analysis channels is
// rejected: it panics with a *UsageError (the forward twin of
// CheckReconstructable) instead of faulting inside a kernel or a pool
// worker.
//
//wavelint:coldpath allocating constructor, runs only on first use or shape change
func NewPyramid(rows, cols int, bank *filter.Bank, ext filter.Extension, levels int) *Pyramid {
	if bank == nil || len(bank.DecLo) == 0 || len(bank.DecHi) == 0 {
		panic(usage("Decompose", "Decompose needs a bank with both analysis filters"))
	}
	p := &Pyramid{Bank: bank, Ext: ext, Levels: make([]DetailBands, levels)}
	for l := 0; l < levels; l++ {
		rows /= 2
		cols /= 2
		p.Levels[levels-1-l] = DetailBands{
			LH: image.New(rows, cols),
			HL: image.New(rows, cols),
			HH: image.New(rows, cols),
		}
	}
	p.Approx = image.New(rows, cols)
	return p
}

// DecomposeRanges is the one level driver behind Decompose,
// DecomposeTol, Decomposer.Decompose and core.ParallelDecomposeTol; run
// decides where each level's ranges execute. It fills the preallocated
// pyramid p (NewPyramid) from im, whose shape must already have passed
// CheckDecomposable. Each level is one call of run over the level's
// output rows, so one pool barrier per level on either tier: with sch
// nil the ranges run the fused convolution sweep
// (kernel.AnalyzeLevelRange), bit-identical to DecomposeReference for
// any split; with a lifting scheme they run the fused lifting sweep
// (kernel.LiftLevelRange), bit-identical to the two-pass lifting
// kernels for any split. Only the pyramid's bands are written: the
// intermediate LL chain and the sweep scratch live in a pooled
// kernel.Arena and in pooled per-range rings.
func DecomposeRanges(p *Pyramid, im *image.Image, sch *filter.LiftingScheme, run RangeRunner) {
	ar := kernel.GetArena()
	s := &levelSweep{ar: ar, sch: sch}
	s.body = s.sweep
	s.decompose(p, im, run)
	kernel.PutArena(ar)
}

// levelSweep is the state DecomposeRanges walks the pyramid with: the
// scratch and tier of the whole transform, and the level its range body
// is on.
type levelSweep struct {
	ar   *kernel.Arena
	sch  *filter.LiftingScheme
	body func(lo, hi int) // s.sweep, bound once so the walk never allocates

	bank    *filter.Bank
	ext     filter.Extension
	src, ll *image.Image
	d       *DetailBands
}

// decompose runs every level of p through run. Level l writes its LL
// into arena slot l%2 while reading the previous level's from the other
// slot; the last level writes p.Approx.
//
//wavelint:hotpath
func (s *levelSweep) decompose(p *Pyramid, im *image.Image, run RangeRunner) {
	levels := len(p.Levels)
	s.bank, s.ext, s.src = p.Bank, p.Ext, im
	for l := 0; l < levels; l++ {
		rows, cols := s.src.Rows, s.src.Cols
		s.d = &p.Levels[levels-1-l]
		s.ll = p.Approx
		if l < levels-1 {
			s.ll = s.ar.LL(l%2, rows/2, cols/2)
		}
		run(rows/2, s.body)
		s.src = s.ll
	}
}

// sweep is the range body of the current level: output rows of the
// fused convolution sweep, or of the fused lifting sweep when the
// transform has a scheme. A range that covers the whole level is the
// only range of its level and uses the arena's ring; split ranges may
// run concurrently and take their own rings from the pool.
//
//wavelint:hotpath
func (s *levelSweep) sweep(lo, hi int) {
	ring := s.ar.Ring()
	whole := lo == 0 && hi == s.src.Rows/2
	if !whole {
		ring = kernel.GetRing()
	}
	d := s.d
	if s.sch == nil {
		kernel.AnalyzeLevelRange(s.ll, d.LH, d.HL, d.HH, s.src, s.bank, s.ext, lo, hi, ring)
	} else {
		kernel.LiftLevelRange(s.ll, d.LH, d.HL, d.HH, s.src, s.sch, lo, hi, ring)
	}
	if !whole {
		kernel.PutRing(ring)
	}
}

// Decomposer is the steady-state fast path: it owns both the scratch
// arena and the output pyramid, reusing them across calls so repeated
// same-shape decompositions allocate nothing. The returned pyramid is
// overwritten by the next Decompose call — callers that need to retain
// results across calls must copy them (or use the allocating Decompose).
// A Decomposer is not safe for concurrent use; give each goroutine its
// own.
type Decomposer struct {
	bank       *filter.Bank
	ext        filter.Extension
	levels     int
	ar         kernel.Arena
	p          *Pyramid
	rows, cols int
	// sweep walks the pyramid on ar. Its lifting scheme, when non-nil,
	// routes Decompose through the lifting tier (resolved once by
	// NewDecomposerTol; nil keeps the bit-identical convolution tier).
	sweep levelSweep
}

// NewDecomposer builds a reusable decomposer for the given bank,
// extension, and depth.
func NewDecomposer(bank *filter.Bank, ext filter.Extension, levels int) *Decomposer {
	return &Decomposer{bank: bank, ext: ext, levels: levels}
}

// Decompose decomposes im, reusing the decomposer's buffers. The first
// call (and any call after a shape change) sizes them; subsequent calls
// are allocation-free.
func (d *Decomposer) Decompose(im *image.Image) (*Pyramid, error) {
	if err := CheckDecomposable(im.Rows, im.Cols, d.levels); err != nil {
		return nil, err
	}
	if d.p == nil || d.rows != im.Rows || d.cols != im.Cols {
		d.reset(im.Rows, im.Cols)
	}
	d.sweep.decompose(d.p, im, inline)
	return d.p, nil
}

// reset sizes the decomposer for rows×cols images: a fresh output
// pyramid, and the level sweep bound to the decomposer's own arena.
//
//wavelint:coldpath runs on the first call and on shape changes
func (d *Decomposer) reset(rows, cols int) {
	d.p = NewPyramid(rows, cols, d.bank, d.ext, d.levels)
	d.rows, d.cols = rows, cols
	d.sweep.ar = &d.ar
	d.sweep.body = d.sweep.sweep
}
