package wavelet

import (
	"fmt"
	"math/bits"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// Pyramid is a multi-level 2-D Mallat decomposition: the coarsest
// approximation image I_L plus, per level, the LH/HL/HH detail subbands.
// Levels[0] is the coarsest (smallest) detail triple, matching the order
// in which reconstruction consumes them.
type Pyramid struct {
	// Approx is I_L, the level-L approximation.
	Approx *image.Image
	// Levels holds the detail subbands coarsest-first; Levels[i] came
	// from decomposition level L-i.
	Levels []DetailBands
	Bank   *filter.Bank
	Ext    filter.Extension
}

// DetailBands is the detail triple of one pyramid level.
type DetailBands struct {
	LH, HL, HH *image.Image
}

// Depth returns the number of decomposition levels.
func (p *Pyramid) Depth() int { return len(p.Levels) }

// CheckDecomposable verifies that a rows×cols image admits a levels-deep
// decomposition (both dimensions divisible by 2^levels) with the given
// bank.
func CheckDecomposable(rows, cols, levels int) error {
	if levels < 1 {
		return fmt.Errorf("wavelet: levels = %d, want >= 1", levels)
	}
	if !DivisiblePow2(rows, levels) || !DivisiblePow2(cols, levels) {
		return fmt.Errorf("wavelet: %dx%d image not divisible by 2^%d", rows, cols, levels)
	}
	return nil
}

// DivisiblePow2 reports whether n is divisible by 2^levels, the one
// level check of the 2-D, 1-D and MasPar paths. 1<<levels overflows at
// the word size, and nothing is that long, so such levels report false
// instead of dividing by zero.
func DivisiblePow2(n, levels int) bool {
	return pow2Levels(levels) && n%(1<<levels) == 0
}

// pow2Levels reports whether 1<<levels is a positive int.
func pow2Levels(levels int) bool { return levels >= 0 && levels < bits.UintSize-1 }

// DecomposeReference runs the textbook multi-resolution algorithm of the
// paper's Section 2 — levels iterations of row filtering, column
// decimation, column filtering, and row decimation, feeding each LL back
// in as the next level's input — via the reference per-column kernels.
// It is the behavioral source of truth and nothing dispatches to it:
// Decompose always runs the fused sweep of internal/wavelet/kernel,
// which must produce bit-identical pyramids (the equivalence tests
// compare the two with math.Float64bits).
//
//wavelint:coldpath reference path allocates per call by design; it serves only as the test oracle and the benchmark baseline
func DecomposeReference(im *image.Image, bank *filter.Bank, ext filter.Extension, levels int) (*Pyramid, error) {
	if err := CheckDecomposable(im.Rows, im.Cols, levels); err != nil {
		return nil, err
	}
	p := &Pyramid{Bank: bank, Ext: ext, Levels: make([]DetailBands, levels)}
	cur := im
	for l := 0; l < levels; l++ {
		sb := Analyze2D(cur, bank, ext)
		p.Levels[levels-1-l] = DetailBands{LH: sb.LH, HL: sb.HL, HH: sb.HH}
		cur = sb.LL
	}
	p.Approx = cur
	return p, nil
}

// Clone returns a deep copy of the pyramid: every band is copied into
// fresh storage, so the clone outlives any reused buffers backing the
// original (the serve layer's Result.Detach relies on this to hand out
// pyramids independent of its Decomposer pools).
func (p *Pyramid) Clone() *Pyramid {
	out := &Pyramid{Bank: p.Bank, Ext: p.Ext, Approx: p.Approx.Clone(), Levels: make([]DetailBands, len(p.Levels))}
	for i, d := range p.Levels {
		out.Levels[i] = DetailBands{LH: d.LH.Clone(), HL: d.HL.Clone(), HH: d.HH.Clone()}
	}
	return out
}

// Mosaic renders the pyramid into a single image of the original size with
// the classic wavelet layout: the approximation in the top-left corner and
// each level's LH (top-right), HL (bottom-left), and HH (bottom-right)
// quadrants around it. Useful for visual inspection and the CLI tools.
func (p *Pyramid) Mosaic() *image.Image {
	rows := p.Approx.Rows << uint(p.Depth())
	cols := p.Approx.Cols << uint(p.Depth())
	out := image.New(rows, cols)
	blit(out.Sub(0, 0, p.Approx.Rows, p.Approx.Cols), p.Approx)
	r, c := p.Approx.Rows, p.Approx.Cols
	for _, d := range p.Levels {
		blit(out.Sub(0, c, d.LH.Rows, d.LH.Cols), d.LH)
		blit(out.Sub(r, 0, d.HL.Rows, d.HL.Cols), d.HL)
		blit(out.Sub(r, c, d.HH.Rows, d.HH.Cols), d.HH)
		r *= 2
		c *= 2
	}
	return out
}

func blit(dst, src *image.Image) {
	for r := 0; r < src.Rows; r++ {
		copy(dst.Row(r), src.Row(r))
	}
}

// Energy returns the total coefficient energy of the pyramid. For an
// orthonormal bank with periodic extension this equals the input image
// energy (Parseval).
func (p *Pyramid) Energy() float64 {
	e := p.Approx.Energy()
	for _, d := range p.Levels {
		e += d.LH.Energy() + d.HL.Energy() + d.HH.Energy()
	}
	return e
}

// Threshold zeroes every detail coefficient with absolute value below t,
// returning the number of coefficients kept (non-zero) and the total
// number of detail coefficients. The approximation band is never
// thresholded. This is the simple compression scheme used by the
// compression example.
func (p *Pyramid) Threshold(t float64) (kept, total int) {
	for _, d := range p.Levels {
		for _, b := range []*image.Image{d.LH, d.HL, d.HH} {
			for r := 0; r < b.Rows; r++ {
				row := b.Row(r)
				for c, v := range row {
					total++
					if v >= -t && v <= t {
						row[c] = 0
					} else {
						kept++
					}
				}
			}
		}
	}
	return kept, total
}

// DecomposeMACs returns the total multiply-accumulate count of a
// levels-deep decomposition of a rows×cols image with a length-f filter.
// Each level processes a quarter of the previous level's pixels.
func DecomposeMACs(rows, cols, f, levels int) int {
	total := 0
	for l := 0; l < levels; l++ {
		total += Level2DMACs(rows, cols, f)
		rows /= 2
		cols /= 2
	}
	return total
}

// PadToDecomposable returns an image whose dimensions are rounded up to
// multiples of 2^levels by symmetric (reflective) extension, along with
// the original size, so arbitrary rasters can go through Decompose. If
// the image is already decomposable it is returned unchanged.
//
// It panics with a *UsageError when levels is negative or 2^levels
// overflows an int (the levels DivisiblePow2 refuses), and when a
// padded side would be longer than a PGM side may be (image.MaxPGMDim),
// rather than divide by zero or try to allocate it.
func PadToDecomposable(im *image.Image, levels int) (padded *image.Image, origRows, origCols int) {
	if !pow2Levels(levels) {
		panic(usage("PadToDecomposable", "PadToDecomposable to %d levels, want 0 to %d", levels, bits.UintSize-2))
	}
	m := 1 << levels
	rows := im.Rows + (m-im.Rows%m)%m
	cols := im.Cols + (m-im.Cols%m)%m
	if rows == im.Rows && cols == im.Cols {
		return im, im.Rows, im.Cols
	}
	if rows > image.MaxPGMDim || cols > image.MaxPGMDim {
		panic(usage("PadToDecomposable", "PadToDecomposable of %dx%d to %d levels needs %dx%d, over the %d-per-side image cap",
			im.Rows, im.Cols, levels, rows, cols, image.MaxPGMDim))
	}
	out := image.New(rows, cols)
	for r := 0; r < rows; r++ {
		sr, _ := filter.Symmetric.Index(r, im.Rows)
		src := im.Row(sr)
		dst := out.Row(r)
		for c := 0; c < cols; c++ {
			sc, _ := filter.Symmetric.Index(c, im.Cols)
			dst[c] = src[sc]
		}
	}
	return out, im.Rows, im.Cols
}

// Crop returns the top-left rows×cols region of im (copying), the inverse
// of PadToDecomposable after reconstruction.
func Crop(im *image.Image, rows, cols int) *image.Image {
	return im.Sub(0, 0, rows, cols).Clone()
}
