package image

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestPGMHostileHeaders exercises the reader's hardening: every case must
// return an error without panicking or attempting the advertised
// allocation.
func TestPGMHostileHeaders(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"magic only":       "P5",
		"truncated header": "P5\n4",
		"huge dims":        "P5\n999999999 999999999\n255\n",
		"dim overflow":     "P5\n99999999999999999999 4\n255\n",
		"negative dim":     "P5\n-4 4\n255\n",
		"zero dim":         "P5\n0 4\n255\n",
		"trailing garbage": "P5\n4x 4\n255\n",
		"bad maxval":       "P5\n4 4\n65535\n",
		"zero maxval":      "P5\n4 4\n0\n",
		"short pixels":     "P5\n4 4\n255\nabc",
		"endless token":    "P5\n" + strings.Repeat("7", 100) + " 4\n255\n",
		"comment at EOF":   "P5\n4 4\n# no newline",
	}
	for name, data := range cases {
		if _, err := ReadPGM(strings.NewReader(data)); err == nil {
			t.Errorf("%s: ReadPGM succeeded, want error", name)
		}
	}
}

// TestReadPGMBoundsDeclaredRaster checks a header declaring more pixels
// than the source can still deliver fails before the pixel plane is
// allocated: the 17-byte body below declares 4096x4096 (128 MiB of
// float64).
func TestReadPGMBoundsDeclaredRaster(t *testing.T) {
	const limit = 1 << 20
	body := []byte("P5 4096 4096 255\n")
	for name, src := range map[string]func() io.Reader{
		"bytes.Reader":   func() io.Reader { return bytes.NewReader(body) },
		"bytes.Buffer":   func() io.Reader { return bytes.NewBuffer(body) },
		"strings.Reader": func() io.Reader { return strings.NewReader(string(body)) },
	} {
		r := src()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadPGM(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: ReadPGM accepted a header-only body", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= limit {
			t.Errorf("%s: allocated %d bytes, want < %d", name, n, limit)
		}
	}
}

func TestPGMCommentsDoNotBuffer(t *testing.T) {
	// A long comment must be skipped, not held in memory, and the image
	// after it must still parse.
	data := "P5\n# " + strings.Repeat("x", 4096) + "\n2 1\n255\n\x10\x20"
	im, err := ReadPGM(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if im.Rows != 1 || im.Cols != 2 || im.Pix[0] != 16 || im.Pix[1] != 32 {
		t.Errorf("parsed %dx%d %v", im.Rows, im.Cols, im.Pix)
	}
}

// FuzzReadPGM feeds arbitrary bytes to the reader: it must never panic,
// and any input it accepts must re-encode and re-decode to the same
// image (PGM pixels are exact bytes, so the round trip is lossless).
func FuzzReadPGM(f *testing.F) {
	var valid bytes.Buffer
	im := New(3, 4)
	for i := range im.Pix {
		im.Pix[i] = float64(i * 7 % 256)
	}
	if err := WritePGM(&valid, im); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("P5\n# comment\n2 2\n255\n\x00\x01\x02\x03"))
	f.Add([]byte("P5\n999999999 999999999\n255\n"))
	f.Add([]byte("P5\n4"))
	f.Add([]byte("P2\n2 2\n255\n0 1 2 3\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := ReadPGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		if im.Rows <= 0 || im.Cols <= 0 || len(im.Pix) != im.Rows*im.Cols {
			t.Fatalf("accepted malformed image: %dx%d, %d pixels", im.Rows, im.Cols, len(im.Pix))
		}
		var buf bytes.Buffer
		if err := WritePGM(&buf, im); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadPGM(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !Equal(im, back, 0) {
			t.Fatal("PGM round trip not byte-exact")
		}
	})
}
