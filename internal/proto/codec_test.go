package proto

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// goldenRaster is a fixed non-square Landsat raster carrying bit
// patterns PGM cannot: negative zero, a denormal-range magnitude and
// negatives. Its 7,680 payload bytes cross bufio's 4 KiB buffer.
func goldenRaster() *image.Image {
	im := image.Landsat(24, 40, 16)
	im.Set(0, 0, math.Copysign(0, -1))
	im.Set(3, 7, 1e-300)
	im.Set(11, 39, -1234.56789)
	im.Set(23, 0, -math.MaxFloat64)
	return im
}

// TestGoldenRasterCodec pins the raster wire form via SHA-256: codec
// drift must be deliberate.
func TestGoldenRasterCodec(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRaster(&buf, goldenRaster()); err != nil {
		t.Fatal(err)
	}
	wantPrefix := []byte{'W', 'R', 'A', 'S', 1, 24, 40}
	if !bytes.HasPrefix(buf.Bytes(), wantPrefix) {
		t.Fatalf("raster header drifted: % x", buf.Bytes()[:len(wantPrefix)])
	}
	if buf.Len() != len(wantPrefix)+8*24*40 {
		t.Fatalf("raster length = %d", buf.Len())
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "437ea9e1664f9a8db6aa4c88a8b0955e0be3526b32f3ba6e1e77aaa233e4b383"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("raster codec digest drifted: %s", got)
	}
}

// legacyEncodeRaster and legacyEncodePyramid are the one-float-per-Write
// encoders the block codec replaced, kept here as the byte-for-byte
// reference for it.
func legacyEncodeRaster(w io.Writer, im *image.Image) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(rasterMagic)
	bw.WriteByte(codecVersion)
	legacyUvarint(bw, uint64(im.Rows))
	legacyUvarint(bw, uint64(im.Cols))
	legacyBand(bw, im)
	return bw.Flush()
}

func legacyEncodePyramid(w io.Writer, p *wavelet.Pyramid) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(pyramidMagic)
	bw.WriteByte(codecVersion)
	legacyUvarint(bw, uint64(len(p.Bank.Name)))
	bw.WriteString(p.Bank.Name)
	bw.WriteByte(byte(p.Ext))
	legacyUvarint(bw, uint64(len(p.Levels)))
	legacyUvarint(bw, uint64(p.Approx.Rows))
	legacyUvarint(bw, uint64(p.Approx.Cols))
	legacyBand(bw, p.Approx)
	for _, d := range p.Levels {
		legacyBand(bw, d.LH)
		legacyBand(bw, d.HL)
		legacyBand(bw, d.HH)
	}
	return bw.Flush()
}

func legacyBand(bw *bufio.Writer, im *image.Image) {
	var scratch [8]byte
	for r := 0; r < im.Rows; r++ {
		for _, v := range im.Row(r) {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			bw.Write(scratch[:])
		}
	}
}

func legacyUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

// oddPyramid decomposes a 24x40 raster three levels deep, so its bands
// are 3x5, 6x10 and 12x20: odd-width approx and detail rows.
func oddPyramid(t testing.TB, bankName string) *wavelet.Pyramid {
	t.Helper()
	bank, err := filter.ByName(bankName)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wavelet.DecomposeReference(goldenRaster(), bank, filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBlockCodecMatchesLegacyBytes encodes shapes that straddle
// bufio's 4 KiB buffer (512 floats) and checks the block encoders emit
// the per-float encoders' bytes exactly.
func TestBlockCodecMatchesLegacyBytes(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 511}, {1, 513}, {3, 700}, {300, 40}}
	for _, sh := range shapes {
		im := image.Landsat(sh[0], sh[1], uint64(sh[0]*sh[1]))
		im.Pix[0] = math.Copysign(0, -1)
		var got, want bytes.Buffer
		if err := EncodeRaster(&got, im); err != nil {
			t.Fatal(err)
		}
		if err := legacyEncodeRaster(&want, im); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%dx%d: block raster bytes differ from the per-float encoder", sh[0], sh[1])
		}
		if n := RasterSize(sh[0], sh[1]); n != got.Len() {
			t.Fatalf("%dx%d: RasterSize = %d, encoded %d bytes", sh[0], sh[1], n, got.Len())
		}
	}

	// A strided view exercises the row-by-row path.
	view := image.Landsat(40, 70, 9).Sub(3, 5, 30, 61)
	var got, want bytes.Buffer
	if err := EncodeRaster(&got, view); err != nil {
		t.Fatal(err)
	}
	if err := legacyEncodeRaster(&want, view); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("strided view: block raster bytes differ from the per-float encoder")
	}

	for _, name := range []string{"haar", "db8", "bior4.4"} {
		p := oddPyramid(t, name)
		got.Reset()
		want.Reset()
		if err := EncodePyramid(&got, p); err != nil {
			t.Fatal(err)
		}
		if err := legacyEncodePyramid(&want, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: block pyramid bytes differ from the per-float encoder", name)
		}
		for _, output := range []string{OutputPyramid, OutputRoundtrip, OutputMosaic} {
			rec := httptest.NewRecorder()
			if err := WriteDecomposeResponse(rec, p, output); err != nil {
				t.Fatal(err)
			}
			if n := DecomposeResponseSize(p, output); n != rec.Body.Len() {
				t.Fatalf("%s %s: DecomposeResponseSize = %d, wrote %d bytes", name, output, n, rec.Body.Len())
			}
		}
	}
}

// noLen hides a reader's Len method, so the decoders cannot size the
// payload up front and must detect truncation while reading.
type noLen struct{ r io.Reader }

func (n noLen) Read(p []byte) (int, error) { return n.r.Read(p) }

// TestCodecTruncatedEverywhere cuts a valid raster and a valid pyramid
// at every byte offset, mid-float included: each prefix must fail with
// *CodecError, whether or not the reader reports its length.
func TestCodecTruncatedEverywhere(t *testing.T) {
	var raster, pyr bytes.Buffer
	if err := EncodeRaster(&raster, image.Landsat(3, 700, 4)); err != nil {
		t.Fatal(err)
	}
	if err := EncodePyramid(&pyr, oddPyramid(t, "db4")); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		data   []byte
		decode func(io.Reader) error
	}{
		{"raster", raster.Bytes(), func(r io.Reader) error { _, err := DecodeRaster(r); return err }},
		{"pyramid", pyr.Bytes(), func(r io.Reader) error { _, err := DecodePyramid(r); return err }},
	}
	for _, tc := range cases {
		for k := 0; k < len(tc.data); k++ {
			for _, r := range []io.Reader{bytes.NewReader(tc.data[:k]), noLen{bytes.NewReader(tc.data[:k])}} {
				err := tc.decode(r)
				var ce *CodecError
				if !errors.As(err, &ce) {
					t.Fatalf("%s cut at %d/%d via %T: err = %v, want *CodecError", tc.name, k, len(tc.data), r, err)
				}
			}
		}
		if err := tc.decode(bytes.NewReader(tc.data)); err != nil {
			t.Fatalf("%s: full body failed: %v", tc.name, err)
		}
	}
}

// hostileBodies declare payloads far beyond their own length: a 9-byte
// raster claiming 4096x4096 pixels (128 MiB) and a 16-byte pyramid
// claiming a 2048x2048 haar approx at one level.
var hostileBodies = map[string][]byte{
	"raster":  []byte("WRAS\x01\x80\x20\x80\x20"),
	"pyramid": []byte("WPYR\x01\x04haar\x00\x01\x80\x10\x80\x10"),
}

// allocDuring reports the bytes f allocates, from the TotalAlloc delta.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileHeaderAllocation checks a declared shape whose payload
// cannot arrive fails with *CodecError before the decoder allocates
// for it, both from a length-reporting reader and through
// ParseDecompose's Content-Length bound.
func TestHostileHeaderAllocation(t *testing.T) {
	const limit = 1 << 20
	check := func(name string, decode func() error) {
		t.Helper()
		var err error
		if n := allocDuring(func() { err = decode() }); n >= limit {
			t.Errorf("%s: allocated %d bytes, want < %d", name, n, limit)
		}
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want *CodecError", name, err)
		}
	}
	check("DecodeRaster", func() error {
		_, err := DecodeRaster(bytes.NewReader(hostileBodies["raster"]))
		return err
	})
	check("DecodePyramid", func() error {
		_, err := DecodePyramid(bytes.NewReader(hostileBodies["pyramid"]))
		return err
	})
	check("DecodePyramid(*bytes.Buffer)", func() error {
		_, err := DecodePyramid(bytes.NewBuffer(hostileBodies["pyramid"]))
		return err
	})

	// ParseDecompose wraps the codec error in a bad_request envelope;
	// the bound comes from Content-Length, then from maxBody alone.
	for _, contentLength := range []int64{int64(len(hostileBodies["raster"])), -1} {
		r := httptest.NewRequest(http.MethodPost, "/v1/decompose?output=pyramid", noLen{bytes.NewReader(hostileBodies["raster"])})
		r.Header.Set("Content-Type", ContentTypeRaster)
		r.ContentLength = contentLength
		var perr *Error
		if n := allocDuring(func() { _, perr = ParseDecompose(httptest.NewRecorder(), r, 1<<20) }); n >= limit {
			t.Errorf("ParseDecompose (Content-Length %d): allocated %d bytes, want < %d", contentLength, n, limit)
		}
		if perr == nil || perr.Code != CodeBadRequest || !strings.Contains(perr.Message, "raster payload") {
			t.Errorf("ParseDecompose (Content-Length %d): err = %v, want a bad_request codec error", contentLength, perr)
		}
	}
}

// TestCodecAllocs gates the codecs' allocation counts: encoding makes a
// fixed number of allocations whatever the image size, and decoding a
// pyramid a small constant plus at most three per level.
func TestCodecAllocs(t *testing.T) {
	bank, err := filter.ByName("db8")
	if err != nil {
		t.Fatal(err)
	}
	var encRaster, encPyramid []float64
	for _, size := range []int{64, 512} {
		im := image.Landsat(size, size, 3)
		p, err := wavelet.Decompose(im, bank, filter.Periodic, 3)
		if err != nil {
			t.Fatal(err)
		}
		encRaster = append(encRaster, testing.AllocsPerRun(5, func() { EncodeRaster(io.Discard, im) }))
		encPyramid = append(encPyramid, testing.AllocsPerRun(5, func() { EncodePyramid(io.Discard, p) }))

		var buf bytes.Buffer
		if err := EncodePyramid(&buf, p); err != nil {
			t.Fatal(err)
		}
		dec := testing.AllocsPerRun(5, func() {
			if _, err := DecodePyramid(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(3*p.Depth() + 8); dec > want {
			t.Errorf("DecodePyramid %d² at %d levels: %.0f allocs, want <= %.0f", size, p.Depth(), dec, want)
		}
	}
	for name, counts := range map[string][]float64{"EncodeRaster": encRaster, "EncodePyramid": encPyramid} {
		if counts[0] != counts[1] || counts[0] > 5 {
			t.Errorf("%s: %v allocs at 64² and 512², want equal and <= 5", name, counts)
		}
	}
}

// codecSeeds adds valid encodings whose payloads cross bufio's 4 KiB
// buffer, the decode-error cases and the hostile headers to a fuzz
// corpus.
func codecSeeds(f *testing.F) {
	var raster, pyr bytes.Buffer
	if err := EncodeRaster(&raster, image.Landsat(3, 700, 4)); err != nil {
		f.Fatal(err)
	}
	if err := EncodePyramid(&pyr, oddPyramid(f, "db4")); err != nil {
		f.Fatal(err)
	}
	f.Add(raster.Bytes())
	f.Add(pyr.Bytes())
	for _, raw := range codecDecodeErrorCases {
		f.Add(raw)
	}
	f.Add(hostileBodies["raster"])
	f.Add(hostileBodies["pyramid"])
}

// checkDecodeAlloc fails when decode allocated more than twice the input
// plus a fixed 64 KiB allowance for buffers and headers.
func checkDecodeAlloc(t *testing.T, data []byte, decode func()) {
	t.Helper()
	if n, limit := allocDuring(decode), uint64(2*len(data)+64<<10); n > limit {
		t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), n, limit)
	}
}

// FuzzDecodeRaster feeds arbitrary bodies to DecodeRaster: it must never
// panic, never allocate beyond the input's own size, and anything it
// accepts must re-encode and decode to the same bits.
func FuzzDecodeRaster(f *testing.F) {
	codecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var im *image.Image
		var err error
		checkDecodeAlloc(t, data, func() { im, err = DecodeRaster(bytes.NewReader(data)) })
		if err != nil {
			var ce *CodecError
			if !errors.As(err, &ce) {
				t.Fatalf("%T is not *CodecError: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := EncodeRaster(&buf, im); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := DecodeRaster(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !image.EqualBits(im, back) {
			t.Fatal("raster round trip not Float64bits-equal")
		}
	})
}

// FuzzDecodePyramid is FuzzDecodeRaster for the pyramid codec.
func FuzzDecodePyramid(f *testing.F) {
	codecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var p *wavelet.Pyramid
		var err error
		checkDecodeAlloc(t, data, func() { p, err = DecodePyramid(bytes.NewReader(data)) })
		if err != nil {
			var ce *CodecError
			if !errors.As(err, &ce) {
				t.Fatalf("%T is not *CodecError: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := EncodePyramid(&buf, p); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := DecodePyramid(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.Bank.Name != p.Bank.Name || back.Ext != p.Ext || back.Depth() != p.Depth() ||
			!image.EqualBits(back.Approx, p.Approx) {
			t.Fatal("pyramid round trip drifted")
		}
		for i, d := range p.Levels {
			b := back.Levels[i]
			if !image.EqualBits(b.LH, d.LH) || !image.EqualBits(b.HL, d.HL) || !image.EqualBits(b.HH, d.HH) {
				t.Fatalf("pyramid round trip drifted at level %d", i)
			}
		}
	})
}

// failWriter refuses every write.
type failWriter struct{}

var errRefused = errors.New("write refused")

func (failWriter) Write([]byte) (int, error) { return 0, errRefused }

// TestEncodeWriteError checks a failing destination stops the block
// encoders with its error once bufio's buffer fills.
func TestEncodeWriteError(t *testing.T) {
	if err := EncodeRaster(failWriter{}, image.Landsat(64, 64, 1)); !errors.Is(err, errRefused) {
		t.Fatalf("EncodeRaster err = %v, want %v", err, errRefused)
	}
	if err := EncodePyramid(failWriter{}, oddPyramid(t, "haar")); !errors.Is(err, errRefused) {
		t.Fatalf("EncodePyramid err = %v, want %v", err, errRefused)
	}
}

// TestBodyBoundsAdmitLargestImage: every maxCodecPixels shape fits the
// request bound as a raster and the response bound as a pyramid, and one
// more pixel row would not.
func TestBodyBoundsAdmitLargestImage(t *testing.T) {
	longName := &filter.Bank{Name: strings.Repeat("x", maxBankNameLen)}
	for _, shape := range [][2]int{{1 << 12, 1 << 12}, {maxCodecDim, maxCodecPixels / maxCodecDim}, {maxCodecPixels / maxCodecDim, maxCodecDim}} {
		rows, cols := shape[0], shape[1]
		if n := int64(RasterSize(rows, cols)); n > MaxRequestBytes {
			t.Errorf("%dx%d raster is %d bytes, over MaxRequestBytes %d", rows, cols, n, MaxRequestBytes)
		}
		if n := int64(RasterSize(rows+1, cols)); n <= MaxRequestBytes {
			t.Errorf("%dx%d raster is %d bytes, within MaxRequestBytes %d", rows+1, cols, n, MaxRequestBytes)
		}
		// One level: the approx and details hold rows*cols coefficients.
		half := &image.Image{Rows: rows / 2, Cols: cols / 2}
		p := &wavelet.Pyramid{Bank: longName, Approx: half,
			Levels: []wavelet.DetailBands{{LH: half, HL: half, HH: half}}}
		if n := int64(DecomposeResponseSize(p, OutputPyramid)); n > MaxResponseBytes {
			t.Errorf("%dx%d pyramid is %d bytes, over MaxResponseBytes %d", rows, cols, n, MaxResponseBytes)
		}
	}
}
