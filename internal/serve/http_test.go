package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
)

func newHTTPServer(t *testing.T, cfg Config) (*Server, http.Handler) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s, s.Handler()
}

// pgmBytes renders a synthetic scene as a binary PGM. Going through
// WritePGM quantizes to integers, which is what makes the round-trip
// byte-exact.
func pgmBytes(t *testing.T, rows, cols int, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := image.WritePGM(&buf, image.Landsat(rows, cols, seed)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHTTPMosaic(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1, Levels: 2})
	body := pgmBytes(t, 64, 64, 7)
	req := httptest.NewRequest(http.MethodPost, "/v1/decompose?filter=db4&levels=2", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/x-portable-graymap" {
		t.Errorf("Content-Type = %q", ct)
	}
	out, err := image.ReadPGM(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != 64 || out.Cols != 64 {
		t.Errorf("mosaic is %dx%d, want 64x64", out.Rows, out.Cols)
	}
}

// TestHTTPRoundTrip: for integer-valued input and an orthonormal bank,
// reconstruction error (~1e-10) cannot cross a rounding boundary, so the
// response bytes must equal the request bytes exactly. This is the same
// check the CI smoke job performs with cmp.
func TestHTTPRoundTrip(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1, Levels: 3})
	body := pgmBytes(t, 64, 64, 3)
	req := httptest.NewRequest(http.MethodPost, "/v1/decompose?output=roundtrip", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatal("round-trip PGM differs from input")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1, Levels: 2})
	good := pgmBytes(t, 64, 64, 1)
	cases := []struct {
		name, target string
		body         []byte
		wantStatus   int
	}{
		{"bad filter", "/v1/decompose?filter=nope", good, http.StatusBadRequest},
		{"bad levels", "/v1/decompose?levels=0", good, http.StatusBadRequest},
		{"bad output", "/v1/decompose?output=gif", good, http.StatusBadRequest},
		{"garbage body", "/v1/decompose", []byte("not a pgm"), http.StatusBadRequest},
		{"undecomposable", "/v1/decompose?levels=9", good, http.StatusBadRequest},
		// 1<<64 is 0 in a 64-bit int: the divisibility check must not
		// divide by it.
		{"levels at the word size", "/v1/decompose?levels=64", good, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, c.target, bytes.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.wantStatus {
			t.Errorf("%s: status = %d, want %d (body %q)", c.name, rec.Code, c.wantStatus, rec.Body.String())
		}
		if code := proto.DecodeError(rec.Code, rec.Body.Bytes()).Code; code != proto.CodeBadRequest {
			t.Errorf("%s: code = %q, want %q", c.name, code, proto.CodeBadRequest)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/decompose", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status = %d, want 405", rec.Code)
	}
}

// TestHTTPOverload: a full queue surfaces as 503 with a Retry-After
// hint, the HTTP face of the deterministic *OverloadError rejection.
func TestHTTPOverload(t *testing.T) {
	s, h := newHTTPServer(t, Config{Workers: 1, QueueDepth: 1, Levels: 1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.execHook = func() {
		entered <- struct{}{}
		<-gate
	}
	defer close(gate)
	body := pgmBytes(t, 32, 32, 2)

	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/decompose", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	go post() // held by the worker
	<-entered
	go post() // fills the queue
	waitCounter(t, &s.metrics.Accepted, 2)

	rec := post()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %q)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	s, h := newHTTPServer(t, Config{Workers: 1, Levels: 2})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}

	// One request so the counters are non-zero.
	req := httptest.NewRequest(http.MethodPost, "/v1/decompose", bytes.NewReader(pgmBytes(t, 64, 64, 4)))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("decompose = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	for _, want := range []string{
		"waveserve_accepted_total 1",
		"waveserve_completed_total 1",
		"waveserve_latency_seconds_count 1",
		`waveserve_latency_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz after Shutdown = %d, want 503", rec.Code)
	}
}

func TestHTTPBanksEndpoint(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1, Levels: 1})
	req := httptest.NewRequest(http.MethodGet, "/v1/banks", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	lines := strings.Fields(rec.Body.String())
	if len(lines) < 18 {
		t.Fatalf("banks endpoint lists %d names, want >= 18: %v", len(lines), lines)
	}
	seen := map[string]bool{}
	for _, l := range lines {
		seen[l] = true
	}
	for _, want := range []string{"haar", "db8", "sym8", "bior4.4", "cdf5/3", "rbio2.2"} {
		if !seen[want] {
			t.Errorf("banks endpoint missing %q", want)
		}
	}

	post := httptest.NewRequest(http.MethodPost, "/v1/banks", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, post)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/banks status = %d, want 405", rec.Code)
	}
}

func TestHTTPBankParam(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1, Levels: 2})
	body := pgmBytes(t, 64, 64, 11)

	// bank= is an alias of filter=; a biorthogonal bank round-trips.
	req := httptest.NewRequest(http.MethodPost, "/v1/decompose?bank=bior4.4&levels=2&output=roundtrip", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("bank=bior4.4 status = %d, body %q", rec.Code, rec.Body.String())
	}

	// Matching filter= and bank= is allowed; conflicting values are 400.
	req = httptest.NewRequest(http.MethodPost, "/v1/decompose?filter=db4&bank=db4&levels=1", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("matching filter/bank status = %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/decompose?filter=db4&bank=haar&levels=1", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("conflicting filter/bank status = %d, want 400", rec.Code)
	}

	// Unknown names surface the catalog in the error body.
	req = httptest.NewRequest(http.MethodPost, "/v1/decompose?bank=db5&levels=1", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown bank status = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "bior4.4") {
		t.Errorf("unknown-bank error does not list the catalog: %q", rec.Body.String())
	}
}
