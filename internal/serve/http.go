package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/wavelet"
)

// Handler returns the service's HTTP surface:
//
//	POST /v1/decompose  One request, three wire forms (internal/proto):
//	                    legacy binary PGM body with query params
//	                    (filter or bank — any registered bank name, e.g.
//	                    db4, sym6, bior4.4, default server; levels,
//	                    default server; tol — relative drift tolerance
//	                    opting into the lifting fast tier, default 0 =
//	                    bit-identical, negative/NaN/Inf rejected with
//	                    400; output=mosaic|roundtrip|pyramid, default
//	                    mosaic), the versioned v1 JSON body form
//	                    (Content-Type: application/json), or the exact
//	                    float64 raster form (application/x-wavelet-raster,
//	                    used by the gateway tiling path). Responses are
//	                    PGM (mosaic/roundtrip) or the exact binary
//	                    pyramid codec (output=pyramid); errors are the
//	                    proto JSON envelope with a stable code field.
//	GET  /v1/banks      Registered bank names, one per line.
//	GET  /healthz       200 "ok" while accepting work, 503 after Shutdown
//	                    (liveness: is the process worth talking to at all).
//	GET  /readyz        200 JSON while able to admit more work; 503 with
//	                    the same JSON body (queue depth, capacity,
//	                    draining) when the admission queue is saturated or
//	                    shutdown has begun — readiness: should a gateway
//	                    route the next request here. Separating the two
//	                    lets passive health checks see overload before
//	                    hard rejection.
//	GET  /metrics       Prometheus text exposition of the registry.
//
// output=mosaic renders the classical pyramid mosaic normalized to
// [0, 255]; output=roundtrip reconstructs the pyramid and returns the
// reconstruction — for integer-valued input the bytes equal the input
// PGM exactly, which the CI smoke test checks end to end.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/decompose", s.handleDecompose)
	mux.HandleFunc("/v1/banks", s.handleBanks)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	// All request parsing — wire-form detection, query params, JSON
	// envelope, image decoding — lives in internal/proto, shared with the
	// gateway. Tolerance range validation (negative, NaN, Inf) stays in
	// Do, which rejects with a typed *wavelet.UsageError mapped to 400.
	preq, perr := proto.ParseDecompose(w, r, proto.MaxRequestBytes)
	if perr != nil {
		proto.WriteError(w, perr)
		return
	}
	res, err := s.Do(r.Context(), Request{
		Image:     preq.Image,
		Bank:      preq.Bank,
		Levels:    preq.Levels,
		Tolerance: preq.Tol,
	})
	if err != nil {
		proto.WriteError(w, DoErrorEnvelope(err))
		return
	}
	defer res.Close()
	if err := proto.WriteDecomposeResponse(w, res.Pyramid, preq.Output); err != nil {
		// Headers are gone; nothing more to do than drop the conn.
		return
	}
}

// DoErrorEnvelope maps a Do error onto the proto error envelope:
// overload and shutdown are 503 (overload with Retry-After so
// well-behaved clients back off), an expired deadline is 504,
// client-side misuse is 400 — each with its stable machine-readable
// code.
func DoErrorEnvelope(err error) *proto.Error {
	var oe *OverloadError
	var ue *wavelet.UsageError
	switch {
	case errors.As(err, &oe):
		e := proto.NewError(http.StatusServiceUnavailable, proto.CodeOverload, "%v", err)
		e.RetryAfterSec = 1
		return e
	case errors.Is(err, ErrStopped):
		return proto.NewError(http.StatusServiceUnavailable, proto.CodeDraining, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return proto.NewError(http.StatusGatewayTimeout, proto.CodeDeadline, "%v", err)
	case errors.Is(err, context.Canceled):
		return proto.NewError(http.StatusServiceUnavailable, proto.CodeCanceled, "%v", err)
	case errors.As(err, &ue):
		return proto.NewError(http.StatusBadRequest, proto.CodeBadRequest, "%v", err)
	default:
		return proto.NewError(http.StatusInternalServerError, proto.CodeInternal, "%v", err)
	}
}

// handleBanks lists the registered filter banks, one name per line —
// the discovery endpoint behind CLI -list-banks style tooling.
func (s *Server) handleBanks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range filter.Names() {
		fmt.Fprintln(w, name)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	stopped := s.stopped
	s.mu.RUnlock()
	if stopped {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyzBody is the /readyz JSON document: enough for a gateway's
// passive health check to see overload building before the queue starts
// hard-rejecting.
type readyzBody struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	Queue    int  `json:"queue"`
	Capacity int  `json:"capacity"`
}

// handleReadyz reports admission readiness, distinct from /healthz
// liveness: a saturated queue or a draining server answers 503 while the
// process itself is still perfectly alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	stopped := s.stopped
	s.mu.RUnlock()
	body := readyzBody{
		Draining: stopped,
		Queue:    len(s.queue),
		Capacity: cap(s.queue),
	}
	body.Ready = !body.Draining && body.Queue < body.Capacity
	w.Header().Set("Content-Type", "application/json")
	if !body.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.metrics.Snapshot()
	snap.WriteProm(w)
}
