package image

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// pgmHeader is the P5 header WritePGM emits, filled with cols and rows.
const pgmHeader = "P5\n%d %d\n255\n"

// WritePGM encodes im as a binary (P5) PGM with maxval 255. Pixels are
// clamped to [0, 255] and rounded to the nearest integer.
func WritePGM(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, pgmHeader, im.Cols, im.Rows); err != nil {
		return err
	}
	buf := make([]byte, im.Cols)
	for r := 0; r < im.Rows; r++ {
		row := im.Row(r)
		for c, v := range row {
			buf[c] = clampByte(v)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PGMSize is the exact length of WritePGM's output for a rows×cols
// image, for presizing the buffer it is written into.
func PGMSize(rows, cols int) int {
	return len(fmt.Sprintf(pgmHeader, cols, rows)) + rows*cols
}

func clampByte(v float64) byte {
	v = math.Round(v)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// MaxPGMDim bounds each PGM dimension and maxPGMPixels their product:
// the reader allocates the pixel plane before streaming the data, so a
// hostile header must not be able to demand an absurd allocation.
const (
	MaxPGMDim    = 1 << 16
	maxPGMPixels = 1 << 24
)

// ReadPGM decodes a binary (P5) PGM image. Comments and arbitrary
// whitespace in the header are handled; maxval up to 255 is supported.
// Malformed input — a truncated header or pixel stream, non-numeric or
// oversized dimensions, an unsupported maxval — yields an error, never a
// panic or an unbounded allocation. When r reports its unread length
// (a *bytes.Reader, *bytes.Buffer or *strings.Reader, or proto's request
// body bounded by its Content-Length), a declared raster larger than the
// bytes that can still arrive is refused before anything is allocated
// for it.
func ReadPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	rows, cols, err := ParsePGMHeader(br)
	if err != nil {
		return nil, err
	}
	if lr, ok := r.(interface{ Len() int }); ok {
		if avail := lr.Len() + br.Buffered(); rows*cols > avail {
			return nil, fmt.Errorf("image: short PGM pixel data: %d bytes declared, %d can arrive", rows*cols, avail)
		}
	}
	im := New(rows, cols)
	buf := make([]byte, cols)
	for r := 0; r < rows; r++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("image: short PGM pixel data at row %d: %w", r, err)
		}
		row := im.Row(r)
		for c, b := range buf {
			row[c] = float64(b)
		}
	}
	return im, nil
}

// ParsePGMHeader reads a binary (P5) PGM header — magic, width, height
// and maxval, with '#' comments and whitespace between them — up to and
// including the one whitespace byte that ends it, and validates the
// shape and maxval. It is the one header parser of ReadPGM and of
// proto's shape sniffer, so the gateway routes on the shape the reader
// decodes.
func ParsePGMHeader(br io.ByteReader) (rows, cols int, err error) {
	var buf [maxPGMToken]byte
	magic, err := pgmToken(br, &buf)
	if err != nil {
		return 0, 0, fmt.Errorf("image: bad PGM header: %w", err)
	}
	if string(magic) != "P5" {
		return 0, 0, fmt.Errorf("image: bad PGM magic %q (only binary P5 supported)", string(magic))
	}
	var dims [3]int
	for i := range dims {
		tok, err := pgmToken(br, &buf)
		if err != nil {
			return 0, 0, fmt.Errorf("image: bad PGM header: %w", err)
		}
		dims[i], err = strconv.Atoi(string(tok))
		if err != nil {
			return 0, 0, fmt.Errorf("image: bad PGM header token %q", string(tok))
		}
	}
	cols, rows, maxval := dims[0], dims[1], dims[2]
	if cols <= 0 || rows <= 0 || cols > MaxPGMDim || rows > MaxPGMDim {
		return 0, 0, fmt.Errorf("image: bad PGM dimensions %dx%d", cols, rows)
	}
	if cols*rows > maxPGMPixels {
		return 0, 0, fmt.Errorf("image: PGM size %dx%d exceeds %d pixels", cols, rows, maxPGMPixels)
	}
	if maxval <= 0 || maxval > 255 {
		return 0, 0, fmt.Errorf("image: unsupported PGM maxval %d", maxval)
	}
	return rows, cols, nil
}

// maxPGMToken bounds a header token's length; no valid magic, dimension,
// or maxval comes close, and the cap keeps a whitespace-free input from
// accumulating into one giant token.
const maxPGMToken = 32

// pgmToken returns the next whitespace-delimited header token in buf,
// skipping '#' comments; a comment inside a token ends at its newline
// and the token continues after it. The single whitespace byte after
// the final header token is consumed as this token's trailing
// delimiter.
func pgmToken(br io.ByteReader, buf *[maxPGMToken]byte) ([]byte, error) {
	tok := buf[:0]
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return tok, nil
			}
			return nil, err
		}
		switch {
		case b == '#':
			if err := skipPGMComment(br); err != nil {
				return nil, err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return tok, nil
			}
		default:
			if len(tok) >= maxPGMToken {
				return nil, fmt.Errorf("header token longer than %d bytes", maxPGMToken)
			}
			tok = append(tok, b)
		}
	}
}

// skipPGMComment consumes the rest of a '#' comment line without
// buffering it (ReadString would otherwise hold an arbitrarily long
// comment in memory).
func skipPGMComment(br io.ByteReader) error {
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if b == '\n' {
			return nil
		}
	}
}

// SavePGM writes im to the named file as binary PGM.
func SavePGM(path string, im *Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePGM(f, im); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadPGM reads a binary PGM image from the named file.
func LoadPGM(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPGM(f)
}
