package wavelet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// Golden pins for the orthonormal banks: FNV-64a digests of the exact
// Float64bits of every pyramid coefficient, frozen at the introduction
// of the biorthogonal bank model. Any change to these hashes means the
// refactor (or a later change) altered the numerical output of the
// historical haar/db4/db6/db8 paths by at least one ulp — which the
// bit-identity contract forbids. Both the reference path and the
// dispatched fast path must land on the same digest.

// pyramidDigest hashes Approx rows first, then LH/HL/HH per level, each
// coefficient as its little-endian IEEE-754 bit pattern.
func pyramidDigest(p *Pyramid) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeImage := func(im *image.Image) {
		for r := 0; r < im.Rows; r++ {
			for _, v := range im.Row(r) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	writeImage(p.Approx)
	for i := range p.Levels {
		writeImage(p.Levels[i].LH)
		writeImage(p.Levels[i].HL)
		writeImage(p.Levels[i].HH)
	}
	return h.Sum64()
}

func TestGoldenOrthonormalDigests(t *testing.T) {
	cases := []struct {
		bank   string
		ext    filter.Extension
		levels int
		want   uint64
	}{
		{"haar", filter.Periodic, 1, 0x79af62118ea2ef81},
		{"haar", filter.Periodic, 3, 0x0353880c7dfeeb1e},
		{"haar", filter.Symmetric, 1, 0x79af62118ea2ef81},
		{"haar", filter.Symmetric, 3, 0x0353880c7dfeeb1e},
		{"haar", filter.Zero, 1, 0x79af62118ea2ef81},
		{"haar", filter.Zero, 3, 0x0353880c7dfeeb1e},
		{"db4", filter.Periodic, 1, 0x5e4a4a0785037637},
		{"db4", filter.Periodic, 3, 0x2db031110684a668},
		{"db4", filter.Symmetric, 1, 0x4a07bd76a225283f},
		{"db4", filter.Symmetric, 3, 0x5564425b399782e3},
		{"db4", filter.Zero, 1, 0x67a8bbde070ba663},
		{"db4", filter.Zero, 3, 0x281118f9cd57fe18},
		{"db6", filter.Periodic, 1, 0xc698935520b64bb5},
		{"db6", filter.Periodic, 3, 0xc4fc7af460985ca6},
		{"db6", filter.Symmetric, 1, 0x24ee9966664054d3},
		{"db6", filter.Symmetric, 3, 0x96edc6eb01a3b351},
		{"db6", filter.Zero, 1, 0x623dddf70621010c},
		{"db6", filter.Zero, 3, 0xc9d911d45392c7f2},
		{"db8", filter.Periodic, 1, 0x1c848f0b4e110f59},
		{"db8", filter.Periodic, 3, 0xb7a6638efe8cb29f},
		{"db8", filter.Symmetric, 1, 0x980c36c3f328a3cb},
		{"db8", filter.Symmetric, 3, 0x9a7eaef983f1991e},
		{"db8", filter.Zero, 1, 0x2c9db16801101404},
		{"db8", filter.Zero, 3, 0x49aa83319b8ee34e},
	}
	im := image.Landsat(48, 32, 7)
	for _, tc := range cases {
		b, err := filter.ByName(tc.bank)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := DecomposeReference(im, b, tc.ext, tc.levels)
		if err != nil {
			t.Fatalf("%s/%v/L%d: %v", tc.bank, tc.ext, tc.levels, err)
		}
		if got := pyramidDigest(ref); got != tc.want {
			t.Errorf("%s/%v/L%d reference digest = %#016x, want %#016x",
				tc.bank, tc.ext, tc.levels, got, tc.want)
		}
		fast, err := Decompose(im, b, tc.ext, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		if got := pyramidDigest(fast); got != tc.want {
			t.Errorf("%s/%v/L%d fast-path digest = %#016x, want %#016x",
				tc.bank, tc.ext, tc.levels, got, tc.want)
		}
		// The tolerance-gated entry point with tol = 0 must keep the
		// bit-identical convolution tier — the default path cannot
		// silently change when the lifting tier is present.
		tol0, err := DecomposeTol(im, b, tc.ext, tc.levels, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := pyramidDigest(tol0); got != tc.want {
			t.Errorf("%s/%v/L%d tol=0 digest = %#016x, want %#016x",
				tc.bank, tc.ext, tc.levels, got, tc.want)
		}
	}
}

// TestGoldenLiftedDigests pins the lifting tier the same way: the
// digests of DecomposeTol at each scheme's Eps, frozen with the scalar
// lifting kernels. The fused lifting sweep and its two-pass reference
// share the row stage, so this golden is what holds that stage to its
// bits. Across levels the shapes' half-widths (100, 50, 25; 68, 34, 17;
// 76, 38, 19; 84, 42, 21; 92, 46, 23) leave the row and column loops
// every tail length modulo four and eight, from 16 samples on, where
// the vector lifting routine takes over.
func TestGoldenLiftedDigests(t *testing.T) {
	cases := []struct {
		bank       string
		rows, cols int
		levels     int
		want       uint64
	}{
		{"haar", 200, 136, 1, 0xf295f61368fa8bf3},
		{"haar", 200, 136, 3, 0xe1b1301515b2b4be},
		{"haar", 136, 200, 1, 0x116fb20514fb34d8},
		{"haar", 136, 200, 3, 0x93d242a59130bb27},
		{"cdf5/3", 200, 136, 1, 0x6479a6b4738fda49},
		{"cdf5/3", 200, 136, 3, 0xa974a46bcfaace16},
		{"cdf5/3", 136, 200, 1, 0xbe084abed0d4ad23},
		{"cdf5/3", 136, 200, 3, 0x221a6c3811e243b4},
		{"bior4.4", 200, 136, 1, 0xd8e66f2c608c620a},
		{"bior4.4", 200, 136, 3, 0x94234306371728a2},
		{"bior4.4", 136, 200, 1, 0x08f67083dd44a2b8},
		{"bior4.4", 136, 200, 3, 0x567dc9f9c81ed6f9},
		{"rbio4.4", 200, 136, 1, 0xd2dbee9e9dc49443},
		{"rbio4.4", 200, 136, 3, 0x0fd6b9e946291739},
		{"rbio4.4", 136, 200, 1, 0x903898a4b86f57bb},
		{"rbio4.4", 136, 200, 3, 0xb01837ddf5f59d88},
		{"db8", 200, 136, 1, 0xa6f190e2ccc2b471},
		{"db8", 200, 136, 3, 0xbc11487676ed4c0d},
		{"db8", 136, 200, 1, 0xaa3c9941e92e8ee9},
		{"db8", 136, 200, 3, 0x084ef2858d01d88a},
		{"haar", 40, 152, 3, 0x1ca76969025a9b6c},
		{"haar", 40, 168, 3, 0x72b16c7e74273c5b},
		{"haar", 40, 184, 3, 0x85734378af91232c},
		{"cdf5/3", 40, 152, 3, 0x6c60dd54ee933f4b},
		{"cdf5/3", 40, 168, 3, 0x4d8a000b4e823f1a},
		{"cdf5/3", 40, 184, 3, 0x1f81d02b898ab866},
		{"bior4.4", 40, 152, 3, 0x74558a45c68035f9},
		{"bior4.4", 40, 168, 3, 0xb44b18ea2babcb01},
		{"bior4.4", 40, 184, 3, 0xc88f419baf42828b},
		{"rbio4.4", 40, 152, 3, 0x744727bad5e9f245},
		{"rbio4.4", 40, 168, 3, 0xd1c91d811db0293a},
		{"rbio4.4", 40, 184, 3, 0x6e326cba70a2fef8},
		{"db8", 40, 152, 3, 0x61ce95cffa6ca084},
		{"db8", 40, 168, 3, 0x503fc2554451af17},
		{"db8", 40, 184, 3, 0x7eb15d5931b442e3},
	}
	for _, tc := range cases {
		b, err := filter.ByName(tc.bank)
		if err != nil {
			t.Fatal(err)
		}
		sch := LiftingFor(b, filter.Periodic, math.Inf(1))
		if sch == nil {
			t.Fatalf("%s: no lifting scheme", tc.bank)
		}
		im := image.Landsat(tc.rows, tc.cols, 7)
		p, err := DecomposeTol(im, b, filter.Periodic, tc.levels, sch.Eps)
		if err != nil {
			t.Fatalf("%s %dx%d L%d: %v", tc.bank, tc.rows, tc.cols, tc.levels, err)
		}
		if got := pyramidDigest(p); got != tc.want {
			t.Errorf("%s %dx%d L%d lifted digest = %#016x, want %#016x",
				tc.bank, tc.rows, tc.cols, tc.levels, got, tc.want)
		}
	}
}
