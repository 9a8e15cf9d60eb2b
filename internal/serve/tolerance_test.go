package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// Tolerance plumbing through the service layer: Request.Tolerance and
// the tol= query parameter select the lifting tier per request, pooled
// Decomposers are keyed by the resolved tier so tiers never mix, and
// out-of-range values are rejected with the typed *wavelet.UsageError
// the HTTP layer maps to 400.

func liftEps(t *testing.T) float64 {
	t.Helper()
	sch := wavelet.LiftingFor(filter.Daubechies8(), filter.Periodic, 1)
	if sch == nil {
		t.Fatal("db8/periodic should admit lifting")
	}
	return sch.Eps
}

// TestDoToleranceWithinDrift: a tolerant request completes and stays
// within the advertised drift of the zero-tolerance result.
func TestDoToleranceWithinDrift(t *testing.T) {
	s, err := New(Config{Workers: 1, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	eps := liftEps(t)
	im := image.Landsat(64, 64, 21)

	exact, err := s.Do(context.Background(), Request{Image: im})
	if err != nil {
		t.Fatal(err)
	}
	ref := exact.Detach()
	res, err := s.Do(context.Background(), Request{Image: im, Tolerance: eps})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var maxDiff, maxRef float64
	accum := func(a, b *image.Image) {
		for r := 0; r < a.Rows; r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				maxDiff = math.Max(maxDiff, math.Abs(ra[c]-rb[c]))
				maxRef = math.Max(maxRef, math.Abs(ra[c]))
			}
		}
	}
	accum(ref.Approx, res.Pyramid.Approx)
	for i := range ref.Levels {
		accum(ref.Levels[i].LH, res.Pyramid.Levels[i].LH)
		accum(ref.Levels[i].HL, res.Pyramid.Levels[i].HL)
		accum(ref.Levels[i].HH, res.Pyramid.Levels[i].HH)
	}
	if maxDiff/maxRef > eps {
		t.Errorf("tolerant result drifts %.3g from exact, want <= %.3g", maxDiff/maxRef, eps)
	}
	if maxDiff == 0 {
		t.Log("note: lifting and convolution agreed exactly on this fixture")
	}
}

// TestDoToleranceRejectsOutOfRange: negative and non-finite tolerances
// are rejected up front with the typed usage error.
func TestDoToleranceRejectsOutOfRange(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	im := image.Landsat(16, 16, 1)
	for _, tol := range []float64{-1, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := s.Do(context.Background(), Request{Image: im, Tolerance: tol})
		var ue *wavelet.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("Tolerance=%v: err = %v, want *wavelet.UsageError", tol, err)
		}
	}
}

// TestTolerancePoolsSeparate: requests at different tolerances must use
// different Decomposer pools — a lifting-tier Decomposer serving a
// zero-tolerance request would silently break bit-identity. The pool
// map holds one pool per tolerance class, and every response is the
// transform of its own class: tol 0 bit-identical to wavelet.Decompose,
// tol Eps to wavelet.DecomposeTol's lifted output.
func TestTolerancePoolsSeparate(t *testing.T) {
	s, err := New(Config{Workers: 1, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	eps := liftEps(t)
	im := image.Landsat(32, 32, 2)
	want := map[float64]*wavelet.Pyramid{}
	for _, tol := range []float64{0, eps} {
		if want[tol], err = wavelet.DecomposeTol(im, filter.Daubechies8(), filter.Periodic, 2, tol); err != nil {
			t.Fatal(err)
		}
	}
	for i, tol := range []float64{0, eps, 0, eps} {
		res, err := s.Do(context.Background(), Request{Image: im, Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}
		requirePyramidBits(t, fmt.Sprintf("request %d (tol %g)", i, tol), want[tol], res.Pyramid)
		res.Close()
	}
	s.poolMu.Lock()
	pools := len(s.pools)
	s.poolMu.Unlock()
	if pools != 2 {
		t.Errorf("%d Decomposer pools, want 2 (one per tolerance class)", pools)
	}
	// A race build drops sync.Pool puts at random, so a class may build
	// a second Decomposer there; elsewhere each class builds exactly one.
	if got := s.CreatedDecomposers(); !raceEnabled && got != 2 {
		t.Errorf("CreatedDecomposers = %d, want 2 (one per tolerance class)", got)
	}
}

// TestTolerancePoolsKeyOnTier: pools are keyed by the tier a tolerance
// resolves to, not by its value. Tolerances that all cover Eps share one
// lifting pool, and a tolerance below Eps, which runs the convolution
// tier, shares the tol-0 pool, so distinct tol values cannot grow the
// pool map without bound.
func TestTolerancePoolsKeyOnTier(t *testing.T) {
	s, err := New(Config{Workers: 1, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	eps := liftEps(t)
	im := image.Landsat(32, 32, 4)
	want := map[bool]*wavelet.Pyramid{}
	for _, lifting := range []bool{false, true} {
		tol := 0.0
		if lifting {
			tol = eps
		}
		if want[lifting], err = wavelet.DecomposeTol(im, filter.Daubechies8(), filter.Periodic, 2, tol); err != nil {
			t.Fatal(err)
		}
	}
	for i, tol := range []float64{eps, 2 * eps, 0.5, 1, 1e300, 0, eps / 2} {
		res, err := s.Do(context.Background(), Request{Image: im, Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}
		requirePyramidBits(t, fmt.Sprintf("request %d (tol %g)", i, tol), want[tol >= eps], res.Pyramid)
		res.Close()
	}
	s.poolMu.Lock()
	pools := len(s.pools)
	s.poolMu.Unlock()
	if pools != 2 {
		t.Errorf("%d Decomposer pools for 7 tolerances, want 2 (one lifting, one convolution)", pools)
	}
	if got := s.CreatedDecomposers(); !raceEnabled && got != 2 {
		t.Errorf("CreatedDecomposers = %d, want 2 (one per tier)", got)
	}
}

// requirePyramidBits fails unless got matches want band for band by
// math.Float64bits.
func requirePyramidBits(t *testing.T, label string, want, got *wavelet.Pyramid) {
	t.Helper()
	if !image.EqualBits(want.Approx, got.Approx) {
		t.Fatalf("%s: approximation differs", label)
	}
	for i := range want.Levels {
		if !image.EqualBits(want.Levels[i].LH, got.Levels[i].LH) ||
			!image.EqualBits(want.Levels[i].HL, got.Levels[i].HL) ||
			!image.EqualBits(want.Levels[i].HH, got.Levels[i].HH) {
			t.Fatalf("%s: detail level %d differs", label, i)
		}
	}
}

// TestHTTPToleranceParam covers the tol= query surface: a valid value
// decomposes (roundtrip still byte-exact for integer input, since the
// drift is orders of magnitude below the quantization step), a
// malformed value is 400 at parse, and an out-of-range value is 400 via
// the typed error path.
func TestHTTPToleranceParam(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1, Levels: 3})
	body := pgmBytes(t, 64, 64, 3)

	req := httptest.NewRequest(http.MethodPost, "/v1/decompose?output=roundtrip&tol=1e-6", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("tol=1e-6: status = %d, body %q", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Error("tol=1e-6 round-trip PGM differs from input (drift crossed a quantization boundary)")
	}

	for _, bad := range []string{"tol=abc", "tol=-0.5", "tol=NaN", "tol=+Inf"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/decompose?"+bad, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %q)", bad, rec.Code, rec.Body.String())
		}
	}
}

// TestRepeatedToleranceRequestsWithinDrift: repeated tolerant requests
// on one worker reuse the pooled lifting-tier Decomposer, and every
// result stays within drift.
func TestRepeatedToleranceRequestsWithinDrift(t *testing.T) {
	s, err := New(Config{Workers: 1, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	eps := liftEps(t)
	im := image.Landsat(32, 32, 9)
	ref, err := wavelet.Decompose(im, filter.Daubechies8(), filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		res, err := s.Do(context.Background(), Request{Image: im, Tolerance: eps})
		if err != nil {
			t.Fatal(err)
		}
		var maxDiff, maxRef float64
		for r := 0; r < ref.Approx.Rows; r++ {
			ra, rb := ref.Approx.Row(r), res.Pyramid.Approx.Row(r)
			for c := range ra {
				maxDiff = math.Max(maxDiff, math.Abs(ra[c]-rb[c]))
				maxRef = math.Max(maxRef, math.Abs(ra[c]))
			}
		}
		res.Close()
		if maxDiff/maxRef > eps {
			t.Fatalf("request %d: tolerant result drifts %.3g, want <= %.3g", i, maxDiff/maxRef, eps)
		}
	}
}
