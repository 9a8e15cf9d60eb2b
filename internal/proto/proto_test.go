package proto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// tinyPGM is a 2x2 P5 image used by the wire-compat pins.
var tinyPGM = []byte("P5\n2 2\n255\n\x00\x01\x02\x03")

// TestGoldenDecomposeJSONRequest pins the v1 JSON request document byte
// for byte. Any change to the field set, order, or encoding is a
// protocol change and must be deliberate (bump Version and keep a
// reader for v1).
func TestGoldenDecomposeJSONRequest(t *testing.T) {
	got, err := EncodeDecomposeJSON("bior4.4", 3, 0.5, OutputPyramid, tinyPGM)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"v":1,"bank":"bior4.4","levels":3,"tol":0.5,"output":"pyramid","image_pgm":"UDUKMiAyCjI1NQoAAQID"}`
	if string(got) != want {
		t.Fatalf("v1 JSON request drifted:\n got %s\nwant %s", got, want)
	}

	// Zero-valued optional fields are omitted; image_pgm is always
	// present.
	got, err = EncodeDecomposeJSON("", 0, 0, "", tinyPGM)
	if err != nil {
		t.Fatal(err)
	}
	const wantMin = `{"v":1,"image_pgm":"UDUKMiAyCjI1NQoAAQID"}`
	if string(got) != wantMin {
		t.Fatalf("minimal v1 JSON request drifted:\n got %s\nwant %s", got, wantMin)
	}
}

// TestGoldenErrorEnvelope pins the error envelope wire form byte for
// byte, including status and headers, for each stable code a client can
// branch on.
func TestGoldenErrorEnvelope(t *testing.T) {
	cases := []struct {
		name       string
		err        *Error
		wantStatus int
		wantRetry  string
		wantBody   string
	}{
		{
			name:       "overload",
			err:        &Error{V: 1, Code: CodeOverload, Message: "server at capacity (64 queued)", RetryAfterSec: 1, Status: 503},
			wantStatus: 503,
			wantRetry:  "1",
			wantBody:   `{"v":1,"code":"overload","message":"server at capacity (64 queued)","retry_after_sec":1}` + "\n",
		},
		{
			name:       "bad request",
			err:        NewError(http.StatusBadRequest, CodeBadRequest, "bad levels %q", "zero"),
			wantStatus: 400,
			wantBody:   `{"v":1,"code":"bad_request","message":"bad levels \"zero\""}` + "\n",
		},
		{
			name:       "budget",
			err:        NewError(http.StatusGatewayTimeout, CodeBudget, "deadline budget exhausted after 3 attempts"),
			wantStatus: 504,
			wantBody:   `{"v":1,"code":"budget_exhausted","message":"deadline budget exhausted after 3 attempts"}` + "\n",
		},
		{
			name:       "draining",
			err:        NewError(http.StatusServiceUnavailable, CodeDraining, "gateway draining"),
			wantStatus: 503,
			wantBody:   `{"v":1,"code":"draining","message":"gateway draining"}` + "\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			WriteError(rec, tc.err)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			if ct := rec.Header().Get("Content-Type"); ct != ContentTypeJSON {
				t.Fatalf("Content-Type = %q", ct)
			}
			if ra := rec.Header().Get("Retry-After"); ra != tc.wantRetry {
				t.Fatalf("Retry-After = %q, want %q", ra, tc.wantRetry)
			}
			if got := rec.Body.String(); got != tc.wantBody {
				t.Fatalf("envelope drifted:\n got %q\nwant %q", got, tc.wantBody)
			}
		})
	}
}

// TestDecodeError round-trips envelopes and wraps non-envelope bodies.
func TestDecodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, NewError(503, CodeOverload, "full").withRetry(2))
	e := DecodeError(rec.Code, rec.Body.Bytes())
	if e.Code != CodeOverload || e.Status != 503 || e.Message != "full" || e.RetryAfterSec != 2 {
		t.Fatalf("round-trip = %+v", e)
	}

	e = DecodeError(500, []byte("plain text panic page\n"))
	if e.Code != CodeInternal || e.Message != "plain text panic page" || e.Status != 500 {
		t.Fatalf("legacy wrap = %+v", e)
	}
}

// withRetry is a test helper: envelope with Retry-After.
func (e *Error) withRetry(sec int) *Error {
	e.RetryAfterSec = sec
	return e
}

func postPGM(query string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/decompose"+query, bytes.NewReader(tinyPGM))
	return r
}

// TestParseDecomposeLegacyQuery is the legacy query-param compatibility
// suite: the PR 5 wire form, message for message.
func TestParseDecomposeLegacyQuery(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		req, perr := ParseDecompose(httptest.NewRecorder(), postPGM(""), 1<<20)
		if perr != nil {
			t.Fatal(perr)
		}
		if req.Bank != nil || req.BankName != "" || req.Levels != 0 || req.Tol != 0 || req.Output != OutputMosaic {
			t.Fatalf("defaults = %+v", req)
		}
		if req.Image.Rows != 2 || req.Image.Cols != 2 || req.Image.At(1, 1) != 3 {
			t.Fatalf("image = %+v", req.Image)
		}
	})
	t.Run("full", func(t *testing.T) {
		req, perr := ParseDecompose(httptest.NewRecorder(),
			postPGM("?filter=db4&levels=2&tol=0.001&output=roundtrip"), 1<<20)
		if perr != nil {
			t.Fatal(perr)
		}
		if req.BankName != "db4" || req.Bank == nil || req.Bank.Name != "db4" {
			t.Fatalf("bank = %+v", req)
		}
		if req.Levels != 2 || req.Tol != 0.001 || req.Output != OutputRoundtrip {
			t.Fatalf("params = %+v", req)
		}
	})
	t.Run("bank alias", func(t *testing.T) {
		req, perr := ParseDecompose(httptest.NewRecorder(), postPGM("?bank=bior4.4"), 1<<20)
		if perr != nil {
			t.Fatal(perr)
		}
		if req.BankName != "bior4.4" {
			t.Fatalf("bank = %q", req.BankName)
		}
	})
	t.Run("matching filter and bank agree", func(t *testing.T) {
		if _, perr := ParseDecompose(httptest.NewRecorder(), postPGM("?filter=haar&bank=haar"), 1<<20); perr != nil {
			t.Fatal(perr)
		}
	})

	bad := []struct {
		query   string
		message string
	}{
		{"?filter=haar&bank=db4", `conflicting filter="haar" and bank="db4"`},
		{"?levels=0", `bad levels "0"`},
		{"?levels=x", `bad levels "x"`},
		{"?tol=abc", `bad tol "abc"`},
		{"?output=weird", `bad output "weird" (mosaic, roundtrip, or pyramid)`},
	}
	for _, tc := range bad {
		t.Run(tc.query, func(t *testing.T) {
			_, perr := ParseDecompose(httptest.NewRecorder(), postPGM(tc.query), 1<<20)
			if perr == nil {
				t.Fatal("want error")
			}
			if perr.Status != http.StatusBadRequest || perr.Code != CodeBadRequest {
				t.Fatalf("status/code = %d/%s", perr.Status, perr.Code)
			}
			if perr.Message != tc.message {
				t.Fatalf("message drifted:\n got %q\nwant %q", perr.Message, tc.message)
			}
		})
	}

	t.Run("unknown bank lists catalog", func(t *testing.T) {
		_, perr := ParseDecompose(httptest.NewRecorder(), postPGM("?bank=nope"), 1<<20)
		if perr == nil || perr.Code != CodeBadRequest {
			t.Fatalf("perr = %v", perr)
		}
		if !strings.Contains(perr.Message, "nope") || !strings.Contains(perr.Message, "haar") {
			t.Fatalf("unknown-bank message should name the catalog: %q", perr.Message)
		}
	})
	t.Run("method", func(t *testing.T) {
		r := httptest.NewRequest(http.MethodGet, "/v1/decompose", nil)
		_, perr := ParseDecompose(httptest.NewRecorder(), r, 1<<20)
		if perr == nil || perr.Status != http.StatusMethodNotAllowed || perr.Code != CodeMethodNotAllowed {
			t.Fatalf("perr = %v", perr)
		}
	})
	t.Run("bad pgm", func(t *testing.T) {
		r := httptest.NewRequest(http.MethodPost, "/v1/decompose", strings.NewReader("not a pgm"))
		_, perr := ParseDecompose(httptest.NewRecorder(), r, 1<<20)
		if perr == nil || perr.Status != http.StatusBadRequest {
			t.Fatalf("perr = %v", perr)
		}
	})
}

// TestParseDecomposeJSONForm covers the v1 JSON body form against the
// legacy baseline.
func TestParseDecomposeJSONForm(t *testing.T) {
	jsonReq := func(body []byte, query string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/decompose"+query, bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json; charset=utf-8")
		return r
	}

	body, err := EncodeDecomposeJSON("db4", 2, 0.001, OutputRoundtrip, tinyPGM)
	if err != nil {
		t.Fatal(err)
	}
	req, perr := ParseDecompose(httptest.NewRecorder(), jsonReq(body, ""), 1<<20)
	if perr != nil {
		t.Fatal(perr)
	}
	legacy, perr := ParseDecompose(httptest.NewRecorder(),
		postPGM("?filter=db4&levels=2&tol=0.001&output=roundtrip"), 1<<20)
	if perr != nil {
		t.Fatal(perr)
	}
	if req.BankName != legacy.BankName || req.Levels != legacy.Levels ||
		req.Tol != legacy.Tol || req.Output != legacy.Output {
		t.Fatalf("JSON form parsed %+v, legacy %+v", req, legacy)
	}
	if !image.EqualBits(req.Image, legacy.Image) {
		t.Fatal("JSON and legacy forms decoded different images")
	}

	bad := []struct {
		name  string
		body  []byte
		query string
	}{
		{"query conflict", body, "?levels=3"},
		{"not json", []byte("P5 pretending"), ""},
		{"wrong version", []byte(`{"v":2,"image_pgm":"UDUKMiAyCjI1NQoAAQID"}`), ""},
		{"missing image", []byte(`{"v":1}`), ""},
		{"negative levels", []byte(`{"v":1,"levels":-1,"image_pgm":"UDUKMiAyCjI1NQoAAQID"}`), ""},
		{"bad output", []byte(`{"v":1,"output":"weird","image_pgm":"UDUKMiAyCjI1NQoAAQID"}`), ""},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, perr := ParseDecompose(httptest.NewRecorder(), jsonReq(tc.body, tc.query), 1<<20)
			if perr == nil || perr.Status != http.StatusBadRequest || perr.Code != CodeBadRequest {
				t.Fatalf("perr = %v", perr)
			}
		})
	}
}

// TestParseDecomposeRasterForm feeds the exact float64 form through the
// shared parser.
func TestParseDecomposeRasterForm(t *testing.T) {
	im := image.Landsat(8, 8, 7)
	var buf bytes.Buffer
	if err := EncodeRaster(&buf, im); err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/decompose?bank=haar&levels=1&output=pyramid", &buf)
	r.Header.Set("Content-Type", ContentTypeRaster)
	req, perr := ParseDecompose(httptest.NewRecorder(), r, 1<<20)
	if perr != nil {
		t.Fatal(perr)
	}
	if !image.EqualBits(req.Image, im) {
		t.Fatal("raster form lost bits")
	}
	if req.Output != OutputPyramid || req.BankName != "haar" {
		t.Fatalf("params = %+v", req)
	}
}

func TestRasterRoundtrip(t *testing.T) {
	im := image.Landsat(16, 12, 3)
	// Exercise bit patterns PGM cannot carry: negatives, tiny fractions,
	// negative zero.
	im.Set(0, 0, -1234.56789)
	im.Set(1, 1, math.Copysign(0, -1))
	im.Set(2, 2, 1e-300)
	var buf bytes.Buffer
	if err := EncodeRaster(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRaster(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !image.EqualBits(got, im) {
		t.Fatal("raster round-trip not bit-identical")
	}
}

func TestSniffRasterShape(t *testing.T) {
	im := image.Landsat(300, 40, 1)
	var buf bytes.Buffer
	if err := EncodeRaster(&buf, im); err != nil {
		t.Fatal(err)
	}
	rows, cols, ok := SniffRasterShape(buf.Bytes())
	if !ok || rows != 300 || cols != 40 {
		t.Fatalf("sniff = %d,%d,%v", rows, cols, ok)
	}
	if _, _, ok := SniffRasterShape([]byte("WRASx")); ok {
		t.Fatal("bad version sniffed ok")
	}
	if _, _, ok := SniffRasterShape(tinyPGM); ok {
		t.Fatal("PGM sniffed as raster")
	}
}

func TestPyramidRoundtrip(t *testing.T) {
	im := image.Landsat(32, 32, 11)
	for _, name := range []string{"haar", "db4", "bior4.4"} {
		for levels := 1; levels <= 3; levels++ {
			bank, err := filter.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := wavelet.DecomposeReference(im, bank, filter.Periodic, levels)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := EncodePyramid(&buf, p); err != nil {
				t.Fatal(err)
			}
			got, err := DecodePyramid(&buf)
			if err != nil {
				t.Fatalf("%s L%d: %v", name, levels, err)
			}
			if got.Bank.Name != p.Bank.Name || got.Ext != p.Ext || got.Depth() != p.Depth() {
				t.Fatalf("%s L%d: metadata drifted", name, levels)
			}
			if !image.EqualBits(got.Approx, p.Approx) {
				t.Fatalf("%s L%d: approx not bit-identical", name, levels)
			}
			for i := range p.Levels {
				if !image.EqualBits(got.Levels[i].LH, p.Levels[i].LH) ||
					!image.EqualBits(got.Levels[i].HL, p.Levels[i].HL) ||
					!image.EqualBits(got.Levels[i].HH, p.Levels[i].HH) {
					t.Fatalf("%s L%d: detail level %d not bit-identical", name, levels, i)
				}
			}
		}
	}
}

// TestGoldenPyramidCodec pins the binary pyramid form via SHA-256 over
// a deterministic pyramid: codec drift must be deliberate.
func TestGoldenPyramidCodec(t *testing.T) {
	bank, err := filter.ByName("haar")
	if err != nil {
		t.Fatal(err)
	}
	p, err := wavelet.DecomposeReference(image.Landsat(8, 8, 42), bank, filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePyramid(&buf, p); err != nil {
		t.Fatal(err)
	}
	wantPrefix := []byte{'W', 'P', 'Y', 'R', 1, 4, 'h', 'a', 'a', 'r', 0, 2, 2, 2}
	if !bytes.HasPrefix(buf.Bytes(), wantPrefix) {
		t.Fatalf("pyramid header drifted: % x", buf.Bytes()[:len(wantPrefix)])
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "78af56ca92e50ca45f146119312dc4a6ec08daf1dbdaa40d4c07cde41890fe74"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("pyramid codec digest drifted: %s", got)
	}
}

// codecDecodeErrorCases are malformed codec bodies; they also seed the
// codec fuzz targets.
var codecDecodeErrorCases = [][]byte{
	nil,
	[]byte("WRAS"),
	[]byte("XXXX\x01"),
	[]byte("WRAS\x02\x04\x04"),
	[]byte("WRAS\x01\x04\x04"), // truncated pixels
	[]byte("WPYR\x01\x00"),     // empty bank name
	[]byte("WPYR\x01\x04nope\x00\x01\x02\x02"),
}

func TestCodecDecodeErrors(t *testing.T) {
	for i, raw := range codecDecodeErrorCases {
		var err error
		if bytes.HasPrefix(raw, []byte("WPYR")) {
			_, err = DecodePyramid(bytes.NewReader(raw))
		} else {
			_, err = DecodeRaster(bytes.NewReader(raw))
		}
		if err == nil {
			t.Fatalf("case %d: want error", i)
		}
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Fatalf("case %d: %T is not *CodecError", i, err)
		}
	}
}

// TestWriteDecomposeResponsePyramid checks the output=pyramid render is
// the exact codec.
func TestWriteDecomposeResponsePyramid(t *testing.T) {
	bank, err := filter.ByName("db4")
	if err != nil {
		t.Fatal(err)
	}
	p, err := wavelet.DecomposeReference(image.Landsat(16, 16, 5), bank, filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	if err := WriteDecomposeResponse(rec, p, OutputPyramid); err != nil {
		t.Fatal(err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentTypePyramid {
		t.Fatalf("Content-Type = %q", ct)
	}
	got, err := DecodePyramid(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !image.EqualBits(got.Approx, p.Approx) {
		t.Fatal("pyramid response not bit-identical")
	}

	rec = httptest.NewRecorder()
	if err := WriteDecomposeResponse(rec, p, OutputRoundtrip); err != nil {
		t.Fatal(err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentTypePGM {
		t.Fatalf("roundtrip Content-Type = %q", ct)
	}
	back, err := image.ReadPGM(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != 16 || back.Cols != 16 {
		t.Fatalf("roundtrip shape = %dx%d", back.Rows, back.Cols)
	}
}

func TestParseRouteInfo(t *testing.T) {
	q := func(s string) url.Values {
		v, err := url.ParseQuery(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	t.Run("legacy pgm", func(t *testing.T) {
		info := ParseRouteInfo(q("filter=db8&levels=3&tol=0.5&output=roundtrip"), "", tinyPGM)
		if !info.OK || !info.ShapeOK {
			t.Fatalf("info = %+v", info)
		}
		if info.Bank != "db8" || info.Levels != 3 || info.Tol != 0.5 || info.Output != OutputRoundtrip {
			t.Fatalf("params = %+v", info)
		}
		if info.Rows != 2 || info.Cols != 2 || !bytes.Equal(info.ImageData, tinyPGM) {
			t.Fatalf("shape/data = %+v", info)
		}
	})
	t.Run("json shares image data with legacy", func(t *testing.T) {
		body, err := EncodeDecomposeJSON("db8", 3, 0.5, OutputRoundtrip, tinyPGM)
		if err != nil {
			t.Fatal(err)
		}
		info := ParseRouteInfo(q(""), "application/json", body)
		legacy := ParseRouteInfo(q("bank=db8&levels=3&tol=0.5&output=roundtrip"), "", tinyPGM)
		if !info.OK || !info.ShapeOK {
			t.Fatalf("info = %+v", info)
		}
		if info.Bank != legacy.Bank || info.Levels != legacy.Levels ||
			info.Tol != legacy.Tol || info.Output != legacy.Output {
			t.Fatalf("json %+v vs legacy %+v", info, legacy)
		}
		if !bytes.Equal(info.ImageData, legacy.ImageData) {
			t.Fatal("forms disagree on ImageData — the content-addressed cache would split entries")
		}
	})
	t.Run("raster", func(t *testing.T) {
		im := image.Landsat(64, 32, 2)
		var buf bytes.Buffer
		if err := EncodeRaster(&buf, im); err != nil {
			t.Fatal(err)
		}
		info := ParseRouteInfo(q("bank=haar&levels=1"), ContentTypeRaster, buf.Bytes())
		if !info.OK || !info.ShapeOK || info.Rows != 64 || info.Cols != 32 {
			t.Fatalf("info = %+v", info)
		}
	})
	malformed := []RouteInfo{
		ParseRouteInfo(q("levels=zero"), "", tinyPGM),
		ParseRouteInfo(q("tol=x"), "", tinyPGM),
		ParseRouteInfo(q("filter=a&bank=b"), "", tinyPGM),
		ParseRouteInfo(q(""), "application/json", []byte("nope")),
		ParseRouteInfo(q("levels=2"), "application/json", []byte(`{"v":1,"image_pgm":"UDUKMiAyCjI1NQoAAQID"}`)),
		ParseRouteInfo(q("bank=nope&levels=1"), "", tinyPGM),
		ParseRouteInfo(q("bank=haar&levels=1&output=bogus"), "", tinyPGM),
		ParseRouteInfo(q(""), "application/json", []byte(`{"v":1,"bank":"haar","levels":1}`)),
	}
	for i, info := range malformed {
		if info.OK {
			t.Fatalf("malformed case %d parsed OK: %+v", i, info)
		}
	}
	t.Run("default output", func(t *testing.T) {
		info := ParseRouteInfo(q(""), "", tinyPGM)
		if info.Output != OutputMosaic {
			t.Fatalf("output = %q", info.Output)
		}
	})
}

// FuzzParseDecompose checks the two entry points against each other:
// neither panics, and serve's ParseDecompose accepts a request exactly
// when the gateway's ParseRouteInfo reports OK and its Decode succeeds,
// and then with the same bank, levels, tol and output, and an image
// decoded to the same bits.
func FuzzParseDecompose(f *testing.F) {
	var raster bytes.Buffer
	if err := EncodeRaster(&raster, image.Landsat(8, 8, 7)); err != nil {
		f.Fatal(err)
	}
	jsonBody, err := EncodeDecomposeJSON("db4", 2, 0.001, OutputRoundtrip, tinyPGM)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("filter=db4&levels=2&tol=0.001&output=roundtrip", "", tinyPGM)
	f.Add("bank=haar&output=bogus", ContentTypePGM, tinyPGM)
	f.Add("", ContentTypeJSON, jsonBody)
	f.Add("levels=1", "application/json; charset=utf-8", []byte(`{"v":1,"bank":"nope","image_pgm":"UDUKMiAyCjI1NQoAAQID"}`))
	f.Add("bank=haar&levels=1&output=pyramid", ContentTypeRaster, raster.Bytes())
	f.Add("bank=haar&levels=1", ContentTypeRaster, raster.Bytes()[:20])
	f.Add("bank=haar&levels=1", "", append([]byte("P5 2#x\n4 4 255\n"), make([]byte, 96)...))

	const maxBody = 1 << 20
	f.Fuzz(func(t *testing.T, rawQuery, contentType string, body []byte) {
		if len(body) > maxBody {
			return
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/decompose", bytes.NewReader(body))
		r.URL.RawQuery = rawQuery
		r.Header.Set("Content-Type", contentType)
		req, perr := ParseDecompose(httptest.NewRecorder(), r, maxBody)
		info := ParseRouteInfo(r.URL.Query(), contentType, body)
		dec, derr := info.Decode()
		if (perr == nil) != (derr == nil) {
			t.Fatalf("ParseDecompose error %v, but ParseRouteInfo OK=%v and Decode error %v", perr, info.OK, derr)
		}
		if perr != nil {
			return
		}
		if info.Bank != req.BankName || info.Levels != req.Levels ||
			math.Float64bits(info.Tol) != math.Float64bits(req.Tol) || info.Output != req.Output {
			t.Fatalf("route info %+v disagrees with parsed request %+v", info, req)
		}
		if !image.EqualBits(dec.Image, req.Image) {
			t.Fatal("the two parsers decoded different images")
		}
		// Whenever the reader accepts, the sniffer reports its shape.
		if !info.ShapeOK || info.Rows != req.Image.Rows || info.Cols != req.Image.Cols {
			t.Fatalf("sniffed %dx%d (ok=%v), decoded %dx%d",
				info.Rows, info.Cols, info.ShapeOK, req.Image.Rows, req.Image.Cols)
		}
	})
}

func TestSniffPGMShape(t *testing.T) {
	cases := []struct {
		body       string
		rows, cols int
		ok         bool
	}{
		{"P5\n640 480\n255\n", 480, 640, true},
		{"P5 # cmt\n# another\n 12\t34 \n255\n", 34, 12, true},
		{"P4\n2 2\n", 0, 0, false},
		{"P5\n0 4\n255\n", 0, 0, false},
		{"P5\nx y\n", 0, 0, false},
		{"", 0, 0, false},
		{"P5 640 480 255\n", 480, 640, true},
		{"P6 640 480 255\n", 0, 0, false},
		{"P5", 0, 0, false},
		// A comment inside a token ends at its newline and the token
		// continues ("2#x\n4" is width 24): the reader decodes 4 rows of
		// 24, so must the sniffer.
		{"P5 2#x\n4 4 255\n" + strings.Repeat("\x00", 96), 4, 24, true},
	}
	for _, tc := range cases {
		rows, cols, ok := SniffPGMShape([]byte(tc.body))
		if rows != tc.rows || cols != tc.cols || ok != tc.ok {
			t.Errorf("SniffPGMShape(%q) = %d,%d,%v want %d,%d,%v",
				tc.body, rows, cols, ok, tc.rows, tc.cols, tc.ok)
		}
	}
}

func TestMediaType(t *testing.T) {
	for in, want := range map[string]string{
		"application/json; charset=utf-8": "application/json",
		"Application/JSON":                "application/json",
		"":                                "",
		"application/x-wavelet-raster":    ContentTypeRaster,
	} {
		if got := MediaType(in); got != want {
			t.Errorf("MediaType(%q) = %q, want %q", in, got, want)
		}
	}
}
