package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// imageHash is FNV-64a over the Float64bits of every sample, row-major.
func imageHash(ims ...*image.Image) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, im := range ims {
		if cap(buf) < 8*im.Cols {
			buf = make([]byte, 8*im.Cols)
		}
		buf = buf[:8*im.Cols]
		for r := 0; r < im.Rows; r++ {
			for c, v := range im.Row(r) {
				binary.LittleEndian.PutUint64(buf[8*c:], math.Float64bits(v))
			}
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// bands lists a pyramid's images in codec order: approximation, then
// LH, HL, HH per level, coarsest first.
func bands(p *wavelet.Pyramid) []*image.Image {
	out := []*image.Image{p.Approx}
	for _, d := range p.Levels {
		out = append(out, d.LH, d.HL, d.HH)
	}
	return out
}

func pyramidHash(p *wavelet.Pyramid) uint64 { return imageHash(bands(p)...) }

// sameShape reports whether two pyramids have the same depth, bank and
// band shapes.
func sameShape(a, b *wavelet.Pyramid) bool {
	if a.Depth() != b.Depth() || a.Bank.Name != b.Bank.Name {
		return false
	}
	ba, bb := bands(a), bands(b)
	for i := range ba {
		if ba[i].Rows != bb[i].Rows || ba[i].Cols != bb[i].Cols {
			return false
		}
	}
	return true
}

// drift returns the relative max-abs and relative L2 distance of got
// from ref over every band, the measure the lifting tier's Eps bounds.
func drift(ref, got *wavelet.Pyramid) (rel, relL2 float64) {
	var maxDiff, maxRef, sumDiff2, sumRef2 float64
	bg := bands(got)
	for i, a := range bands(ref) {
		b := bg[i]
		for r := 0; r < a.Rows; r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				d := math.Abs(ra[c] - rb[c])
				maxDiff = math.Max(maxDiff, d)
				maxRef = math.Max(maxRef, math.Abs(ra[c]))
				sumDiff2 += d * d
				sumRef2 += ra[c] * ra[c]
			}
		}
	}
	if maxRef == 0 {
		maxRef = 1
	}
	if sumRef2 == 0 {
		sumRef2 = 1
	}
	return maxDiff / maxRef, math.Sqrt(sumDiff2 / sumRef2)
}

// pyramidWant is the expected forward transform of one (image, bank):
// a tol-0 pyramid must hash to hash; a lifted one must stay within eps
// of the convolution reference ref.
type pyramidWant struct {
	hash uint64
	ref  *wavelet.Pyramid
	eps  float64
}

// expectPyramid computes the expectation in process with the sequential
// transform.
func expectPyramid(im *image.Image, b bankSpec, levels int) (pyramidWant, error) {
	ref, err := wavelet.Decompose(im, b.bank, filter.Periodic, levels)
	if err != nil {
		return pyramidWant{}, err
	}
	if b.lifted() {
		return pyramidWant{ref: ref, eps: b.tol}, nil
	}
	return pyramidWant{hash: pyramidHash(ref)}, nil
}

func (w pyramidWant) check(p *wavelet.Pyramid) error {
	if p == nil {
		return fmt.Errorf("nil pyramid")
	}
	if w.ref == nil {
		if h := pyramidHash(p); h != w.hash {
			return fmt.Errorf("pyramid hash %016x, want %016x", h, w.hash)
		}
		return nil
	}
	if !sameShape(w.ref, p) {
		return fmt.Errorf("pyramid shape differs from the reference")
	}
	if rel, relL2 := drift(w.ref, p); rel > w.eps || relL2 > w.eps {
		return fmt.Errorf("lifted drift %.3g (L2 %.3g) exceeds eps %.3g", rel, relL2, w.eps)
	}
	return nil
}

// mosaicPGM is the in-process rendering of output=mosaic: the pyramid
// mosaic normalised to [0, 255] as PGM bytes.
func mosaicPGM(p *wavelet.Pyramid) ([]byte, error) {
	m := p.Mosaic()
	m.Normalize(0, 255)
	var buf bytes.Buffer
	if err := image.WritePGM(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkRoundtrip compares a served reconstruction with the quantised
// input, which for the integer-valued inputs here is the input itself.
func checkRoundtrip(in, got *image.Image) error {
	if got == nil || !image.EqualBits(in, got) {
		return fmt.Errorf("roundtrip differs from the quantised input")
	}
	return nil
}
