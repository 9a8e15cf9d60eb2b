package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/gateway"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/serve"
	"wavelethpc/internal/wavelet"
)

// diffCase is one request of the tiling differential test.
type diffCase struct {
	rows, cols, levels int
	bank               string
	stripes            int    // the gateway's TileStripes
	form               string // "raster", "json" or "pgm"
}

// TestTiledDifferential drives client → caching, tiling gateway → two
// real serve backends over HTTP and checks every pyramid is
// Float64bits-equal to the in-process transform, across a seeded draw
// of shape × bank × levels × stripe count × wire form. The fixed cases
// pin one stripe (the whole image) and a halo capped at the image
// height; the last request repeats one and must be a cache hit.
func TestTiledDifferential(t *testing.T) {
	urls := make([]string, 2)
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
	gateways := map[int]*gateway.Gateway{}
	gwURLs := map[int]string{}
	for _, stripes := range []int{1, 2, 3} {
		g, err := gateway.New(gateway.Config{
			Backends: urls, Seed: 17, ProbeInterval: -1,
			TileRows: 1, TileStripes: stripes, CacheBytes: 1 << 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(g.Handler())
		t.Cleanup(func() {
			srv.Close()
			g.Shutdown(context.Background())
		})
		gateways[stripes], gwURLs[stripes] = g, srv.URL
	}

	cases := []diffCase{
		{64, 16, 3, "db8", 1, "raster"},   // one stripe: the whole image
		{32, 8, 3, "db8", 2, "pgm"},       // halo 48 capped at 16 rows
		{32, 24, 2, "bior4.4", 3, "json"}, // halo 24 capped at 20 and 24 rows
	}
	rng := rand.New(rand.NewSource(21))
	names := filter.Names()
	forms := []string{"raster", "json", "pgm"}
	for len(cases) < 24 {
		levels := 1 + rng.Intn(4)
		cases = append(cases, diffCase{
			rows:    (1 + rng.Intn(12)) << levels,
			cols:    (1 + rng.Intn(6)) << levels,
			levels:  levels,
			bank:    names[rng.Intn(len(names))],
			stripes: 1 + rng.Intn(3),
			form:    forms[rng.Intn(len(forms))],
		})
	}

	var oneStripe, capped int
	for i, tc := range cases {
		label := fmt.Sprintf("case %d %+v", i, tc)
		bank, err := filter.ByName(tc.bank)
		if err != nil {
			t.Fatal(err)
		}
		plan := wavelet.PlanStripes(tc.rows, tc.levels, bank.DecLen(), tc.stripes)
		if len(plan) == 1 {
			oneStripe++
		}
		for _, s := range plan {
			if s.Halo > 0 && s.Rows+s.Halo == tc.rows {
				capped++
			}
		}
		g := gateways[tc.stripes]
		before := g.Metrics().TileStripes.Value()
		got, im, header := diffRequest(t, gwURLs[tc.stripes], tc, uint64(i+1))
		want, err := wavelet.Decompose(im, bank, filter.Periodic, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		requirePyramidBits(t, label, got, want)
		if n := g.Metrics().TileStripes.Value() - before; n != int64(len(plan)) {
			t.Fatalf("%s: %d stripe sub-requests, want %d", label, n, len(plan))
		}
		if header != nil && header.Get("X-Wavegate-Backend") != "tiled" {
			t.Fatalf("%s: backend %q, want tiled", label, header.Get("X-Wavegate-Backend"))
		}
	}
	if oneStripe == 0 || capped == 0 {
		t.Fatalf("draw covered %d one-stripe and %d capped-halo requests, want both", oneStripe, capped)
	}

	// The repeat of a legacy-form request is answered by the cache.
	tc := cases[1]
	got, im, header := diffRequest(t, gwURLs[tc.stripes], tc, 2)
	if c := header.Get("X-Wavegate-Cache"); c != "hit" {
		t.Fatalf("repeat: X-Wavegate-Cache %q, want hit", c)
	}
	bank, _ := filter.ByName(tc.bank)
	want, err := wavelet.Decompose(im, bank, filter.Periodic, tc.levels)
	if err != nil {
		t.Fatal(err)
	}
	requirePyramidBits(t, "cache hit", got, want)
}

// diffRequest sends one case's Landsat image in the case's wire form and
// returns the pyramid, the image the server decoded (PGM forms quantize
// it) and, for the forms that expose them, the response headers.
func diffRequest(t *testing.T, url string, tc diffCase, seed uint64) (*wavelet.Pyramid, *image.Image, http.Header) {
	t.Helper()
	ctx := context.Background()
	im := image.Landsat(tc.rows, tc.cols, seed)
	req := DecomposeRequest{Bank: tc.bank, Levels: tc.levels}
	if tc.form == "raster" {
		p, err := New(url).Decompose(ctx, im, req)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		return p, im, nil
	}
	var pgm bytes.Buffer
	if err := image.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	quantized, err := image.ReadPGM(bytes.NewReader(pgm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	var header http.Header
	if tc.form == "json" {
		body, err = New(url).DecomposeJSON(ctx, pgm.Bytes(), req, proto.OutputPyramid)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	} else {
		resp, err := http.Post(url+"/v1/decompose?bank="+tc.bank+"&levels="+strconv.Itoa(tc.levels)+"&output=pyramid",
			"", bytes.NewReader(pgm.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d, %v: %s", tc, resp.StatusCode, err, body)
		}
		header = resp.Header
	}
	p, err := proto.DecodePyramid(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%+v: %v", tc, err)
	}
	return p, quantized, header
}

// requirePyramidBits fails unless got matches want band for band by
// math.Float64bits.
func requirePyramidBits(t *testing.T, label string, got, want *wavelet.Pyramid) {
	t.Helper()
	if got.Depth() != want.Depth() || !image.EqualBits(got.Approx, want.Approx) {
		t.Fatalf("%s: approx band (depth %d, want %d) not bit-identical", label, got.Depth(), want.Depth())
	}
	for i := range want.Levels {
		if !image.EqualBits(got.Levels[i].LH, want.Levels[i].LH) ||
			!image.EqualBits(got.Levels[i].HL, want.Levels[i].HL) ||
			!image.EqualBits(got.Levels[i].HH, want.Levels[i].HH) {
			t.Fatalf("%s: detail level %d not bit-identical", label, i)
		}
	}
}
