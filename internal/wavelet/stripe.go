package wavelet

import (
	"fmt"

	"wavelethpc/internal/image"
)

// Stripe is one row stripe of a striped levels-deep decomposition, the
// paper's Paragon split with the per-level guard-zone exchange traded
// for redundant computation: a node that holds the stripe's kept rows
// [Start, Start+Rows) plus Halo rows below them, wrapped modulo the
// image height, computes every level of its share without talking to
// its neighbours.
//
// Why it is exact: the analysis filter is causal (output row j of a
// level reads input rows 2j..2j+f-1), rows are complete (the horizontal
// pass is local to a row), and Start is a multiple of 2^levels, so row
// j of the stripe's level-l band is global row Start/2^l + j for every
// row whose support stayed inside the stripe. With V_0 = Rows+Halo
// valid rows at level 0, V_l = ⌊(V_{l-1}-f+2)/2⌋ are valid at level l,
// and the halo makes V_l ≥ Rows/2^l at every level. Unrolled, that is
// V_0 ≥ Rows + (f-2)(2^levels-1), so the halo is that excess rounded up
// to a multiple of 2^levels (the stripe must itself be decomposable).
// It is capped at R-Rows for an R-row image: a capped stripe is the
// whole image rotated by Start, and since Start is a multiple of
// 2^levels the periodic transform of the rotation is the rotation of
// the transform, so every row it keeps is exact too.
type Stripe struct {
	Start, Rows, Halo int
}

// PlanStripes splits a rows-tall image into at most stripes stripes for
// a levels-deep decomposition with an analysis filter of length f
// (filter.Bank.DecLen). Shares go in blocks of 2^levels rows, so the
// plan has min(stripes, rows/2^levels) stripes; one stripe is the whole
// image from row 0 with no halo. rows must be divisible by 2^levels
// (CheckDecomposable).
func PlanStripes(rows, levels, f, stripes int) []Stripe {
	block := 1 << levels
	halo := (max(f-2, 0)*(block-1) + block - 1) / block * block
	shares := StripeShares(rows/block, stripes)
	plan := make([]Stripe, len(shares))
	start := 0
	for i, n := range shares {
		h := n * block
		plan[i] = Stripe{Start: start, Rows: h, Halo: min(halo, rows-h)}
		start += h
	}
	return plan
}

// StripeShares distributes n units over at most stripes stripes, each
// getting at least one (stripes is capped at n), the larger shares
// first.
func StripeShares(n, stripes int) []int {
	stripes = max(min(stripes, n), 1)
	base, rem := n/stripes, n%stripes
	shares := make([]int, stripes)
	for i := range shares {
		shares[i] = base
		if i < rem {
			shares[i]++
		}
	}
	return shares
}

// Extract copies the stripe's Rows+Halo full-width rows out of im from
// row Start, wrapping row indices modulo the image height: the wrap is
// the periodic extension the single-node transform applies at the image
// boundary.
func (s Stripe) Extract(im *image.Image) *image.Image {
	out := image.New(s.Rows+s.Halo, im.Cols)
	for m := range out.Rows {
		copy(out.Row(m), im.Row((s.Start+m)%im.Rows))
	}
	return out
}

// Bands returns views of the rows of p's bands that hold the stripe's
// kept rows when the stripe begins at row r0 of the image p was
// decomposed from: r0 = 0 for the pyramid of Extract's image, r0 =
// Start for the whole image's. The order is the wire order: Approx,
// then LH, HL, HH of each level coarsest-first.
func (s Stripe) Bands(p *Pyramid, r0 int) []*image.Image {
	levels := p.Depth()
	view := func(b *image.Image, shift int) *image.Image {
		return b.Sub(r0>>shift, 0, s.Rows>>shift, b.Cols)
	}
	out := []*image.Image{view(p.Approx, levels)}
	for i, d := range p.Levels {
		out = append(out, view(d.LH, levels-i), view(d.HL, levels-i), view(d.HH, levels-i))
	}
	return out
}

// Place copies the kept rows of sp, the pyramid of Extract's image,
// into dst, the whole image's pyramid (NewPyramid). It refuses an sp
// whose shape is not the stripe's.
func (s Stripe) Place(dst, sp *Pyramid) error {
	levels := dst.Depth()
	if sp.Depth() != levels || sp.Approx.Rows != (s.Rows+s.Halo)>>levels || sp.Approx.Cols != dst.Approx.Cols {
		return fmt.Errorf("wavelet: stripe pyramid %dx%d depth %d, want %dx%d depth %d",
			sp.Approx.Rows, sp.Approx.Cols, sp.Depth(), (s.Rows+s.Halo)>>levels, dst.Approx.Cols, levels)
	}
	src := s.Bands(sp, 0)
	for i, b := range s.Bands(dst, s.Start) {
		blit(b, src[i])
	}
	return nil
}
