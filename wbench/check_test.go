package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// alterOneResponse wraps a handler so that the n-th successful decompose
// response has the byte in the middle of its body inverted.
func alterOneResponse(n int64) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if r.URL.Path == "/v1/decompose" && rec.Code == http.StatusOK && seen.Add(1) == n {
				body[len(body)/2] ^= 0xff
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// TestWrongOutputIsCaught: one altered response after warm-up makes the
// run incorrect, counts as one failed operation, and sets a non-zero
// exit status.
func TestWrongOutputIsCaught(t *testing.T) {
	o := tinyOptions(t, "service", false)
	// Warm-up sends every distinct Decompose once; alter a measured one.
	e, err := genService(o)
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for _, op := range e.ops {
		if op.kind == opDecompose {
			warm++
		}
	}
	o.wrapBackend = alterOneResponse(int64(warm + 5))
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || exitStatus(res) == 0 {
		t.Fatalf("altered response not caught: correct=%v failed=%d exit=%d", res.Correct, res.Failed, exitStatus(res))
	}
	if res.Failed != 1 {
		t.Errorf("failed = %d, want exactly the 1 altered response", res.Failed)
	}
}
