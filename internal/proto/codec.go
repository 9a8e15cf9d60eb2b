package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// Binary codec magics. Both formats are little-endian, carry a version
// byte after the magic, and store every coefficient as its raw float64
// bit pattern — encode/decode round-trips are Float64bits-identical,
// which is what lets the gateway's tiling path stitch sub-pyramids into
// the exact single-node result.
const (
	rasterMagic  = "WRAS"
	pyramidMagic = "WPYR"
	codecVersion = 1
)

// Codec size limits, aligned with the PGM reader's: a hostile header
// cannot provoke a huge allocation.
const (
	maxCodecDim    = 1 << 16
	maxCodecPixels = 1 << 24
)

// CodecError is the typed decode failure of the binary codecs.
type CodecError struct {
	Format string // "raster" or "pyramid"
	Reason string
}

func (e *CodecError) Error() string {
	return fmt.Sprintf("proto: bad %s payload: %s", e.Format, e.Reason)
}

func codecErr(format, reason string, args ...any) error {
	return &CodecError{Format: format, Reason: fmt.Sprintf(reason, args...)}
}

// EncodeRaster writes im in the exact float64 raster form:
//
//	"WRAS" | version byte | uvarint rows | uvarint cols |
//	rows*cols float64 bit patterns, row-major, little-endian
func EncodeRaster(w io.Writer, im *image.Image) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(rasterMagic)
	bw.WriteByte(codecVersion)
	writeUvarint(bw, uint64(im.Rows))
	writeUvarint(bw, uint64(im.Cols))
	if err := writeBand(bw, im); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeRaster inverts EncodeRaster.
func DecodeRaster(r io.Reader) (*image.Image, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, rasterMagic, "raster"); err != nil {
		return nil, err
	}
	rows, err := readDim(br, "raster", "rows")
	if err != nil {
		return nil, err
	}
	cols, err := readDim(br, "raster", "cols")
	if err != nil {
		return nil, err
	}
	if rows*cols > maxCodecPixels {
		return nil, codecErr("raster", "%dx%d exceeds %d pixels", rows, cols, maxCodecPixels)
	}
	if err := checkPayload(r, br, rows*cols, "raster"); err != nil {
		return nil, err
	}
	im := image.New(rows, cols)
	if err := readFloats(br, im.Pix, "raster"); err != nil {
		return nil, err
	}
	return im, nil
}

// RasterSize is the exact length of EncodeRaster's output for a
// rows×cols image, for presizing the buffer it is encoded into.
func RasterSize(rows, cols int) int {
	return len(rasterMagic) + 1 + uvarintLen(uint64(rows)) + uvarintLen(uint64(cols)) + 8*rows*cols
}

// SniffRasterShape reads a raster header from a buffered body without
// touching the pixels.
func SniffRasterShape(body []byte) (rows, cols int, ok bool) {
	if len(body) < len(rasterMagic)+1 || string(body[:len(rasterMagic)]) != rasterMagic ||
		body[len(rasterMagic)] != codecVersion {
		return 0, 0, false
	}
	rest := body[len(rasterMagic)+1:]
	r, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, false
	}
	c, m := binary.Uvarint(rest[n:])
	if m <= 0 {
		return 0, 0, false
	}
	if r == 0 || c == 0 || r > maxCodecDim || c > maxCodecDim {
		return 0, 0, false
	}
	return int(r), int(c), true
}

// EncodePyramid writes p in the exact binary pyramid form:
//
//	"WPYR" | version byte | uvarint len(bank name) | bank name |
//	extension byte | uvarint levels | uvarint approx rows | uvarint
//	approx cols | approx floats | per level coarsest-first: LH, HL, HH
//	floats
//
// Band dimensions are not stored: Levels[i] bands are approx<<i on each
// axis by construction, so everything derives from the approx shape.
func EncodePyramid(w io.Writer, p *wavelet.Pyramid) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(pyramidMagic)
	bw.WriteByte(codecVersion)
	writeUvarint(bw, uint64(len(p.Bank.Name)))
	bw.WriteString(p.Bank.Name)
	bw.WriteByte(byte(p.Ext))
	writeUvarint(bw, uint64(len(p.Levels)))
	writeUvarint(bw, uint64(p.Approx.Rows))
	writeUvarint(bw, uint64(p.Approx.Cols))
	if err := writeBand(bw, p.Approx); err != nil {
		return err
	}
	for _, d := range p.Levels {
		for _, b := range [...]*image.Image{d.LH, d.HL, d.HH} {
			if err := writeBand(bw, b); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DecodePyramid inverts EncodePyramid, resolving the bank against the
// catalog.
func DecodePyramid(r io.Reader) (*wavelet.Pyramid, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, pyramidMagic, "pyramid"); err != nil {
		return nil, err
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen == 0 || nameLen > 64 {
		return nil, codecErr("pyramid", "bad bank name length")
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, codecErr("pyramid", "truncated bank name")
	}
	bank, err := filter.ByName(string(name))
	if err != nil {
		return nil, codecErr("pyramid", "%v", err)
	}
	extByte, err := br.ReadByte()
	if err != nil || extByte > byte(filter.Zero) {
		return nil, codecErr("pyramid", "bad extension byte")
	}
	levels, err := binary.ReadUvarint(br)
	if err != nil || levels < 1 || levels > 24 {
		return nil, codecErr("pyramid", "bad levels")
	}
	ar, err2 := readDim(br, "pyramid", "approx rows")
	if err2 != nil {
		return nil, err2
	}
	ac, err2 := readDim(br, "pyramid", "approx cols")
	if err2 != nil {
		return nil, err2
	}
	// The original image is approx<<levels per axis; bound it like any
	// other decoded raster.
	if ar<<levels > maxCodecDim || ac<<levels > maxCodecDim ||
		(ar<<levels)*(ac<<levels) > maxCodecPixels {
		return nil, codecErr("pyramid", "%dx%d approx at %d levels exceeds size limits", ar, ac, levels)
	}
	// Every band lives in one slab, approx first, then LH, HL, HH per
	// level coarsest-first, which is the wire order, so the payload
	// decodes in a single readFloats.
	n := ar * ac
	for i := 0; i < int(levels); i++ {
		n += 3 * (ar << i) * (ac << i)
	}
	if err := checkPayload(r, br, n, "pyramid"); err != nil {
		return nil, err
	}
	slab := make([]float64, n)
	if err := readFloats(br, slab, "pyramid"); err != nil {
		return nil, err
	}
	bands := make([]image.Image, 0, 1+3*levels)
	band := func(rows, cols int) *image.Image {
		bands = append(bands, image.Image{Rows: rows, Cols: cols, Stride: cols, Pix: slab[: rows*cols : rows*cols]})
		slab = slab[rows*cols:]
		return &bands[len(bands)-1]
	}
	p := &wavelet.Pyramid{
		Bank:   bank,
		Ext:    filter.Extension(extByte),
		Approx: band(ar, ac),
		Levels: make([]wavelet.DetailBands, levels),
	}
	for i := range p.Levels {
		br2, bc2 := ar<<i, ac<<i
		p.Levels[i] = wavelet.DetailBands{LH: band(br2, bc2), HL: band(br2, bc2), HH: band(br2, bc2)}
	}
	return p, nil
}

// DecomposeResponseSize is the exact length of the body
// WriteDecomposeResponse writes for p in the given output form.
func DecomposeResponseSize(p *wavelet.Pyramid, output string) int {
	if output != OutputPyramid {
		return image.PGMSize(p.Approx.Rows<<p.Depth(), p.Approx.Cols<<p.Depth())
	}
	n := len(pyramidMagic) + 1 + uvarintLen(uint64(len(p.Bank.Name))) + len(p.Bank.Name) + 1 +
		uvarintLen(uint64(len(p.Levels))) + uvarintLen(uint64(p.Approx.Rows)) + uvarintLen(uint64(p.Approx.Cols)) +
		8*p.Approx.Rows*p.Approx.Cols
	for _, d := range p.Levels {
		n += 8 * (d.LH.Rows*d.LH.Cols + d.HL.Rows*d.HL.Cols + d.HH.Rows*d.HH.Cols)
	}
	return n
}

// WriteDecomposeResponse renders a finished pyramid onto w in the
// requested output form — the one response-encoding path shared by the
// serve layer and the gateway's tiling coordinator.
func WriteDecomposeResponse(w http.ResponseWriter, p *wavelet.Pyramid, output string) error {
	switch output {
	case OutputRoundtrip:
		w.Header().Set("Content-Type", ContentTypePGM)
		return image.WritePGM(w, wavelet.Reconstruct(p))
	case OutputPyramid:
		w.Header().Set("Content-Type", ContentTypePyramid)
		return EncodePyramid(w, p)
	default: // OutputMosaic
		out := p.Mosaic()
		out.Normalize(0, 255)
		w.Header().Set("Content-Type", ContentTypePGM)
		return image.WritePGM(w, out)
	}
}

// writeBand writes im's pixels row-major as float64 bit patterns.
func writeBand(bw *bufio.Writer, im *image.Image) error {
	for r := 0; r < im.Rows; r++ {
		if err := writeFloats(bw, im.Row(r)); err != nil {
			return err
		}
	}
	return nil
}

// writeFloats appends vs to bw as little-endian float64 bit patterns a
// block at a time, straight into bufio's own buffer: one Write per
// buffer's worth and no staging array (a stack array passed to Write
// escapes to the heap).
func writeFloats(bw *bufio.Writer, vs []float64) error {
	for len(vs) > 0 {
		if bw.Available() < 8 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		n := min(len(vs), bw.Available()/8)
		buf := bw.AvailableBuffer()
		for _, v := range vs[:n] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}

func writeUvarint(bw *bufio.Writer, v uint64) {
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v))
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

func expectMagic(br *bufio.Reader, magic, format string) error {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return codecErr(format, "truncated header")
	}
	if string(hdr[:4]) != magic {
		return codecErr(format, "bad magic %q", hdr[:4])
	}
	if hdr[4] != codecVersion {
		return codecErr(format, "unsupported version %d", hdr[4])
	}
	return nil
}

func readDim(br *bufio.Reader, format, what string) (int, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil || v == 0 || v > maxCodecDim {
		return 0, codecErr(format, "bad %s", what)
	}
	return int(v), nil
}

// checkPayload rejects a declared payload of n floats that exceeds the
// bytes that can still arrive, before anything is allocated for it. The
// bound is known when the source reports its unread length (a
// *bytes.Reader or *bytes.Buffer, or ParseDecompose's body bounded by
// its Content-Length); other sources fall back to the size limits alone.
func checkPayload(src io.Reader, br *bufio.Reader, n int, format string) error {
	lr, ok := src.(interface{ Len() int })
	if !ok {
		return nil
	}
	if avail := lr.Len() + br.Buffered(); 8*n > avail {
		return codecErr(format, "truncated pixel data: %d bytes declared, %d can arrive", 8*n, avail)
	}
	return nil
}

// readFloats fills dst from br's little-endian float64 bit patterns a
// buffer's worth at a time, decoding straight out of bufio's buffer.
func readFloats(br *bufio.Reader, dst []float64, format string) error {
	for len(dst) > 0 {
		n := min(len(dst), br.Size()/8)
		buf, err := br.Peek(8 * n)
		if err != nil {
			return codecErr(format, "truncated pixel data")
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		br.Discard(8 * n)
		dst = dst[n:]
	}
	return nil
}
