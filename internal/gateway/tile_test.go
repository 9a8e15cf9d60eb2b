package gateway

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/serve"
	"wavelethpc/internal/wavelet"
)

// newServeFleet starts n real in-process waveserved backends and
// returns their URLs.
func newServeFleet(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		s, err := serve.New(serve.Config{QueueDepth: 64, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			srv.Close()
			s.Shutdown(context.Background())
		})
		urls[i] = srv.URL
	}
	return urls
}

// postDecompose drives the gateway's HTTP surface.
func postDecompose(t *testing.T, g *Gateway, query, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/decompose"+query, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

func encodePGM(t *testing.T, im *image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := image.WritePGM(&buf, im); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requireBitsEqual(t *testing.T, label string, got, want *wavelet.Pyramid) {
	t.Helper()
	if got.Depth() != want.Depth() {
		t.Fatalf("%s: depth %d, want %d", label, got.Depth(), want.Depth())
	}
	if !image.EqualBits(got.Approx, want.Approx) {
		t.Fatalf("%s: approx band not bit-identical", label)
	}
	for i := range want.Levels {
		if !image.EqualBits(got.Levels[i].LH, want.Levels[i].LH) ||
			!image.EqualBits(got.Levels[i].HL, want.Levels[i].HL) ||
			!image.EqualBits(got.Levels[i].HH, want.Levels[i].HH) {
			t.Fatalf("%s: detail level %d not bit-identical", label, i)
		}
	}
}

// TestTiledBitIdentityEveryBank is the tentpole property: for every
// catalog bank under periodic extension, across odd and even stripe
// counts, the stitched distributed-tile pyramid is Float64bits-identical
// to the single-node transform.
func TestTiledBitIdentityEveryBank(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet property test")
	}
	urls := newServeFleet(t, 3)
	pgm := encodePGM(t, image.Landsat(32, 32, 9))
	// The reference transform must see exactly what the gateway decodes:
	// the PGM-quantized image, not the continuous Landsat floats.
	im, err := image.ReadPGM(bytes.NewReader(pgm))
	if err != nil {
		t.Fatal(err)
	}
	const levels = 2
	for _, name := range filter.Names() {
		bank, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wavelet.Decompose(im, bank, filter.Periodic, levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, stripes := range []int{1, 2, 3, 5} {
			g := newTestGateway(t, Config{
				Backends:    urls,
				Seed:        42,
				TileRows:    1, // always tile
				TileStripes: stripes,
			})
			rec := postDecompose(t, g,
				"?bank="+name+"&levels=2&output=pyramid", "", pgm)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s S=%d: status %d: %s", name, stripes, rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get("X-Wavegate-Backend"); got != "tiled" {
				t.Fatalf("%s S=%d: backend %q, want tiled", name, stripes, got)
			}
			got, err := proto.DecodePyramid(rec.Body)
			if err != nil {
				t.Fatalf("%s S=%d: %v", name, stripes, err)
			}
			requireBitsEqual(t, name, got, want)
			g.Shutdown(context.Background())
		}
	}
}

// TestTiledRasterInputAndOddShapes covers the raster wire form as
// tiling input plus non-square and deeper shapes.
func TestTiledRasterInputAndOddShapes(t *testing.T) {
	urls := newServeFleet(t, 2)
	bank, err := filter.ByName("bior4.4")
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ rows, cols, levels int }{
		{64, 16, 3},
		{16, 64, 1},
		{24, 40, 2},
	} {
		im := image.Landsat(shape.rows, shape.cols, uint64(shape.rows*shape.cols))
		var raster bytes.Buffer
		if err := proto.EncodeRaster(&raster, im); err != nil {
			t.Fatal(err)
		}
		want, err := wavelet.Decompose(im, bank, filter.Periodic, shape.levels)
		if err != nil {
			t.Fatal(err)
		}
		g := newTestGateway(t, Config{Backends: urls, Seed: 7, TileRows: 1, TileStripes: 3})
		rec := postDecompose(t, g,
			"?bank=bior4.4&levels="+strconv.Itoa(shape.levels)+"&output=pyramid",
			proto.ContentTypeRaster, raster.Bytes())
		if rec.Code != http.StatusOK {
			t.Fatalf("%dx%d L%d: status %d: %s", shape.rows, shape.cols, shape.levels, rec.Code, rec.Body.String())
		}
		got, err := proto.DecodePyramid(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		requireBitsEqual(t, "raster", got, want)
		g.Shutdown(context.Background())
	}
}

// TestTiledRoundtripOutput checks the tiling path renders output forms
// other than pyramid: the stitched reconstruction must reproduce the
// input PGM byte for byte, like the single-node roundtrip.
func TestTiledRoundtripOutput(t *testing.T) {
	urls := newServeFleet(t, 2)
	im := image.Landsat(32, 32, 5)
	pgm := encodePGM(t, im)
	g := newTestGateway(t, Config{Backends: urls, Seed: 1, TileRows: 1, TileStripes: 2})
	rec := postDecompose(t, g, "?bank=db8&levels=2&output=roundtrip", "", pgm)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), pgm) {
		t.Fatal("tiled roundtrip did not reproduce the input PGM")
	}
}

// TestTilingFallsBackToForwarding pins the cases the coordinator must
// NOT tile: requests it cannot fully understand are forwarded to a
// single backend untouched.
func TestTilingFallsBackToForwarding(t *testing.T) {
	urls := newServeFleet(t, 2)
	im := image.Landsat(16, 16, 2)
	pgm := encodePGM(t, im)
	g := newTestGateway(t, Config{Backends: urls, Seed: 3, TileRows: 8, CacheBytes: 1 << 20})

	cases := []struct {
		name  string
		query string
		body  []byte // nil sends pgm
	}{
		{"no explicit bank", "?levels=2&output=pyramid", nil},
		{"no explicit levels", "?bank=db4&output=pyramid", nil},
		{"lifting tier requested", "?bank=db4&levels=2&tol=0.01&output=pyramid", nil},
		{"not decomposable", "?bank=db4&levels=5&output=pyramid", nil}, // 16x16 not 2^5-divisible
		{"bad output", "?bank=db4&levels=2&output=bogus", nil},
		{"truncated pgm", "?bank=db4&levels=2&output=pyramid", pgm[:len(pgm)-7]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.body
			if body == nil {
				body = pgm
			}
			before, _ := g.CacheStats()
			rec := postDecompose(t, g, tc.query, "", body)
			if b := rec.Header().Get("X-Wavegate-Backend"); b == "tiled" {
				t.Fatalf("request was tiled; want plain forwarding")
			}
			// The gateway answers as serve does, and caches no refusal.
			direct, err := http.Post(urls[0]+"/v1/decompose"+tc.query, "", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			directBody, err := io.ReadAll(direct.Body)
			direct.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Code != direct.StatusCode {
				t.Fatalf("status %d, serve answers %d: %s", rec.Code, direct.StatusCode, rec.Body.String())
			}
			if rec.Code != http.StatusOK {
				got, want := proto.DecodeError(rec.Code, rec.Body.Bytes()), proto.DecodeError(direct.StatusCode, directBody)
				if got.Code != want.Code {
					t.Fatalf("code %q, serve answers %q", got.Code, want.Code)
				}
				if after, _ := g.CacheStats(); after != before {
					t.Fatalf("a %d answer was cached (%d -> %d entries)", rec.Code, before, after)
				}
			}
		})
	}

	t.Run("below threshold", func(t *testing.T) {
		small := image.Landsat(4, 4, 1)
		rec := postDecompose(t, g, "?bank=db4&levels=1&output=pyramid", "", encodePGM(t, small))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if b := rec.Header().Get("X-Wavegate-Backend"); b == "tiled" {
			t.Fatal("4-row image was tiled below the 8-row threshold")
		}
	})
}

// TestTiledMatchesSingleBackendWire checks tiled and non-tiled gateways
// return byte-identical pyramid responses for the same request.
func TestTiledMatchesSingleBackendWire(t *testing.T) {
	urls := newServeFleet(t, 2)
	im := image.Landsat(32, 32, 13)
	pgm := encodePGM(t, im)
	const query = "?bank=sym5&levels=2&output=pyramid"

	tiled := newTestGateway(t, Config{Backends: urls, Seed: 5, TileRows: 1, TileStripes: 2})
	plain := newTestGateway(t, Config{Backends: urls, Seed: 5})
	rt := postDecompose(t, tiled, query, "", pgm)
	rp := postDecompose(t, plain, query, "", pgm)
	if rt.Code != http.StatusOK || rp.Code != http.StatusOK {
		t.Fatalf("status tiled=%d plain=%d", rt.Code, rp.Code)
	}
	if !bytes.Equal(rt.Body.Bytes(), rp.Body.Bytes()) {
		t.Fatal("tiled and single-backend pyramid responses differ on the wire")
	}
}

// TestTiledOneSubrequestPerStripe pins the one-round protocol: a tiled
// request makes one levels=L sub-request per stripe, so the stripe
// counter grows by the stripe count, not levels × stripes.
func TestTiledOneSubrequestPerStripe(t *testing.T) {
	var (
		mu     sync.Mutex
		levels []string
	)
	urls := make([]string, 2)
	for i := range urls {
		s, err := serve.New(serve.Config{QueueDepth: 64, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/decompose" {
				mu.Lock()
				levels = append(levels, r.URL.Query().Get("levels"))
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			srv.Close()
			s.Shutdown(context.Background())
		})
		urls[i] = srv.URL
	}
	g := newTestGateway(t, Config{Backends: urls, Seed: 3, TileRows: 1, TileStripes: 3})
	rec := postDecompose(t, g, "?bank=db8&levels=3&output=pyramid", "", encodePGM(t, image.Landsat(64, 32, 4)))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Wavegate-Backend") != "tiled" {
		t.Fatalf("status %d backend %q: %s", rec.Code, rec.Header().Get("X-Wavegate-Backend"), rec.Body.String())
	}
	if got := g.Metrics().TileStripes.Value(); got != 3 {
		t.Fatalf("wavegate_tile_stripes_total = %d, want 3", got)
	}
	if len(levels) != 3 {
		t.Fatalf("backends saw %d sub-requests, want 3", len(levels))
	}
	for _, l := range levels {
		if l != "3" {
			t.Fatalf("sub-request levels = %q, want 3", l)
		}
	}
}
