package client

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/gateway"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/serve"
	"wavelethpc/internal/wavelet"
)

// newServeClient starts a real in-process waveserved and returns a
// Client against it.
func newServeClient(t *testing.T) *Client {
	t.Helper()
	s, err := serve.New(serve.Config{QueueDepth: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown(context.Background())
	})
	return New(srv.URL)
}

// newGatewayClient starts a waveserved fleet behind a wavegate and
// returns a Client against the gateway.
func newGatewayClient(t *testing.T, backends int, cfg gateway.Config) *Client {
	t.Helper()
	urls := make([]string, backends)
	for i := range urls {
		s, err := serve.New(serve.Config{QueueDepth: 16, Workers: 2})
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
	cfg.Backends = urls
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		gw.Close()
		g.Shutdown(context.Background())
	})
	return New(gw.URL)
}

// TestDecomposeBitIdentical checks the client's exact wire path: a
// Decompose through serve returns the same Float64 bits as the
// in-process transform.
func TestDecomposeBitIdentical(t *testing.T) {
	c := newServeClient(t)
	im := image.Landsat(32, 32, 7)
	bank, err := filter.ByName("bior4.4")
	if err != nil {
		t.Fatal(err)
	}
	want, err := wavelet.Decompose(im, bank, filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompose(context.Background(), im, DecomposeRequest{Bank: "bior4.4", Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "serve", got, want)
}

// requireBitIdentical fails unless every band of got carries the same
// Float64 bits as want.
func requireBitIdentical(t *testing.T, label string, got, want *wavelet.Pyramid) {
	t.Helper()
	if got.Depth() != want.Depth() || !image.EqualBits(got.Approx, want.Approx) {
		t.Fatalf("%s: pyramid approx not bit-identical to the in-process transform", label)
	}
	for i := range want.Levels {
		if !image.EqualBits(got.Levels[i].LH, want.Levels[i].LH) ||
			!image.EqualBits(got.Levels[i].HL, want.Levels[i].HL) ||
			!image.EqualBits(got.Levels[i].HH, want.Levels[i].HH) {
			t.Fatalf("%s: detail level %d not bit-identical", label, i)
		}
	}
}

// TestDecomposeSceneSize sends a 2048x2048 scene, whose raster body is
// 32 MiB plus its header, through serve and through a forwarding gateway
// (tiling off): both bounds admit it and the bits come back unchanged.
func TestDecomposeSceneSize(t *testing.T) {
	im := image.Landsat(2048, 2048, 3)
	want, err := wavelet.Decompose(im, filter.Daubechies8(), filter.Periodic, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := DecomposeRequest{Bank: "db8", Levels: 3}
	for _, tc := range []struct {
		label string
		c     *Client
	}{
		{"serve", newServeClient(t)},
		{"gateway", newGatewayClient(t, 1, gateway.Config{Seed: 5})},
	} {
		got, err := tc.c.Decompose(context.Background(), im, req)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		requireBitIdentical(t, tc.label, got, want)
	}
}

// TestDecomposeThroughGateway runs the same exact path via a gateway
// with tiling and caching enabled: same bits, and the cache answers the
// repeat.
func TestDecomposeThroughGateway(t *testing.T) {
	c := newGatewayClient(t, 2, gateway.Config{
		Seed:       21,
		TileRows:   1,
		CacheBytes: 1 << 20,
	})
	im := image.Landsat(32, 32, 7)
	bank, err := filter.ByName("db8")
	if err != nil {
		t.Fatal(err)
	}
	want, err := wavelet.Decompose(im, bank, filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := c.Decompose(context.Background(), im, DecomposeRequest{Bank: "db8", Levels: 2})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !image.EqualBits(got.Approx, want.Approx) {
			t.Fatalf("round %d: approx not bit-identical through the gateway", i)
		}
	}
}

// TestRoundtripAndMosaic covers the PGM output forms.
func TestRoundtripAndMosaic(t *testing.T) {
	c := newServeClient(t)
	// Integer-valued input so the roundtrip is exact after quantization.
	src := image.Landsat(16, 16, 3)
	var buf bytes.Buffer
	if err := image.WritePGM(&buf, src); err != nil {
		t.Fatal(err)
	}
	im, err := image.ReadPGM(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	back, err := c.Roundtrip(context.Background(), im, DecomposeRequest{Bank: "db4", Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !image.EqualBits(back, im) {
		t.Fatal("roundtrip did not reproduce the integer-valued input")
	}

	mos, err := c.Mosaic(context.Background(), im, DecomposeRequest{Bank: "db4", Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mos.Rows != im.Rows || mos.Cols != im.Cols {
		t.Fatalf("mosaic is %dx%d, want %dx%d", mos.Rows, mos.Cols, im.Rows, im.Cols)
	}
}

// TestDecomposeJSONForm covers the v1 JSON body form end to end.
func TestDecomposeJSONForm(t *testing.T) {
	c := newServeClient(t)
	var pgm bytes.Buffer
	if err := image.WritePGM(&pgm, image.Landsat(16, 16, 5)); err != nil {
		t.Fatal(err)
	}
	body, err := c.DecomposeJSON(context.Background(), pgm.Bytes(),
		DecomposeRequest{Bank: "haar", Levels: 1}, "pyramid")
	if err != nil {
		t.Fatal(err)
	}
	p, err := proto.DecodePyramid(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 1 || p.Bank.Name != "haar" {
		t.Fatalf("got depth %d bank %q", p.Depth(), p.Bank.Name)
	}
}

// TestBanksAndHealth covers the discovery and liveness endpoints.
func TestBanksAndHealth(t *testing.T) {
	c := newServeClient(t)
	names, err := c.Banks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		if n == "db8" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bank list %v missing db8", names)
	}
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatalf("Healthy: %v", err)
	}
}

// TestTypedErrorRoundtrip pins the client's error contract: service
// envelopes decode into *APIError with the stable code, status, and
// retry hint intact.
func TestTypedErrorRoundtrip(t *testing.T) {
	c := newServeClient(t)

	// A usage error from a real serve: unknown bank is 400 bad_request.
	_, err := c.Decompose(context.Background(), image.Landsat(8, 8, 1),
		DecomposeRequest{Bank: "nope", Levels: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not an *APIError", err, err)
	}
	if apiErr.Code != CodeBadRequest || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("got code %q status %d, want %q 400", apiErr.Code, apiErr.Status, CodeBadRequest)
	}

	// Scripted envelopes for the operational codes the serve path cannot
	// produce on demand.
	for _, tc := range []struct {
		status int
		code   string
		retry  int
	}{
		{http.StatusServiceUnavailable, CodeOverload, 1},
		{http.StatusServiceUnavailable, CodeDraining, 0},
		{http.StatusGatewayTimeout, CodeBudget, 0},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			e := proto.NewError(tc.status, tc.code, "scripted %s", tc.code)
			e.RetryAfterSec = tc.retry
			proto.WriteError(w, e)
		}))
		sc := New(srv.URL)
		_, err := sc.Banks(context.Background())
		srv.Close()
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: error %v is not an *APIError", tc.code, err)
		}
		if apiErr.Code != tc.code || apiErr.Status != tc.status || apiErr.RetryAfterSec != tc.retry {
			t.Fatalf("%s: got code %q status %d retry %d", tc.code, apiErr.Code, apiErr.Status, apiErr.RetryAfterSec)
		}
	}

	// A non-envelope failure (reverse proxy, panic page) still surfaces
	// as a typed error, with code internal and the body text preserved.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bare text failure", http.StatusBadGateway)
	}))
	defer srv.Close()
	_, err = New(srv.URL).Banks(context.Background())
	if !errors.As(err, &apiErr) {
		t.Fatalf("non-envelope error %v is not an *APIError", err)
	}
	if apiErr.Code != CodeInternal || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("non-envelope: got code %q status %d", apiErr.Code, apiErr.Status)
	}
}

// TestGatewayOperationalErrors drives the gateway error mapping through
// the client: a fleet of dead backends yields no_backends with a retry
// hint.
func TestGatewayOperationalErrors(t *testing.T) {
	// A backend that refuses connections: the gateway exhausts its
	// transport retries and answers with its own error envelope.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	g, err := gateway.New(gateway.Config{
		Backends:      []string{dead.URL},
		Seed:          9,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown(context.Background())
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	_, err = New(gw.URL).Decompose(context.Background(), image.Landsat(8, 8, 1),
		DecomposeRequest{Bank: "haar", Levels: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an *APIError", err)
	}
	if apiErr.Status != http.StatusBadGateway && apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 502 or 503", apiErr.Status)
	}
	if apiErr.Code == "" {
		t.Fatal("missing stable error code")
	}
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// TestKeepAliveReuse checks that streamed response decoding leaves the
// keep-alive connection reusable: sequential Decompose and Roundtrip
// calls, a 4xx in between, all ride one connection. Every 2xx body is
// followed by 64 KiB of padding the decoders never read, so only the
// client's drain to EOF keeps the connection alive.
func TestKeepAliveReuse(t *testing.T) {
	s, err := serve.New(serve.Config{QueueDepth: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		if sw.status < 300 {
			w.Write(make([]byte, 64<<10))
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown(context.Background())
	})
	c := New(srv.URL, WithHTTPClient(srv.Client()))
	ctx := context.Background()
	req := DecomposeRequest{Bank: "db8", Levels: 3}
	im := image.Landsat(64, 48, 5)
	for i := 0; i < 20; i++ {
		if _, err := c.Decompose(ctx, im, req); err != nil {
			t.Fatalf("Decompose %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		back, err := c.Roundtrip(ctx, im, req)
		if err != nil {
			t.Fatalf("Roundtrip %d: %v", i, err)
		}
		if back.Rows != im.Rows || back.Cols != im.Cols {
			t.Fatalf("Roundtrip %d: shape %dx%d", i, back.Rows, back.Cols)
		}
	}
	_, err = c.Decompose(ctx, im, DecomposeRequest{Bank: "nope", Levels: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("bad bank: err = %v, want a 400 bad_request *APIError", err)
	}
	if _, err := c.Decompose(ctx, im, req); err != nil {
		t.Fatalf("Decompose after 4xx: %v", err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("opened %d connections, want 1", n)
	}
}

// TestStreamedOutputError checks a 5xx answer to the streamed
// Roundtrip and Decompose paths still surfaces as *APIError.
func TestStreamedOutputError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		proto.WriteError(w, proto.NewError(http.StatusServiceUnavailable, CodeOverload, "scripted overload"))
	}))
	defer srv.Close()
	c := New(srv.URL)
	im := image.Landsat(8, 8, 1)
	_, errRT := c.Roundtrip(context.Background(), im, DecomposeRequest{})
	_, errDec := c.Decompose(context.Background(), im, DecomposeRequest{})
	for _, err := range []error{errRT, errDec} {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != CodeOverload || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("err = %v, want a 503 overload *APIError", err)
		}
	}
}
