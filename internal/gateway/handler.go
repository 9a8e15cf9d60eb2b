package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"wavelethpc/internal/proto"
)

// Handler returns the gateway's HTTP surface:
//
//	POST /v1/decompose  buffered and routed by (shape, bank, levels)
//	                    affinity with retries/hedging; the winning
//	                    backend's response is forwarded verbatim plus an
//	                    X-Wavegate-Backend header.
//	GET  /v1/banks      proxied to any available backend.
//	GET  /healthz       200 "ok", 503 once draining.
//	GET  /readyz        JSON readiness: per-backend breaker states; 503
//	                    while draining or with zero routable backends.
//	GET  /metrics       Prometheus text exposition (wavegate_ namespace).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/decompose", g.handleDecompose)
	mux.HandleFunc("/v1/banks", g.handleBanks)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.HandleFunc("/metrics", g.handleMetrics)
	return mux
}

func (g *Gateway) handleDecompose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		proto.WriteError(w, proto.NewError(http.StatusMethodNotAllowed, proto.CodeMethodNotAllowed,
			"POST a binary PGM body (or the v1 JSON form)"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, proto.MaxRequestBytes))
	if err != nil {
		proto.WriteError(w, proto.NewError(http.StatusBadRequest, proto.CodeBadRequest,
			"reading body: %v", err))
		return
	}
	// Serve's own parameter steps extract routing affinity, the canonical
	// decompose parameters, and the raw image payload from whichever wire
	// form carried them. A request serve would reject loses affinity,
	// caching, and tiling, and is forwarded verbatim so the backend
	// produces the authoritative diagnostic.
	info := proto.ParseRouteInfo(r.URL.Query(), r.Header.Get("Content-Type"), body)
	key := RouteKey{Bank: info.Bank, Levels: info.Levels}
	if info.ShapeOK {
		key.Rows, key.Cols = info.Rows, info.Cols
	}
	res, err := g.serveDecompose(r.Context(), &info, &Request{
		Method:      http.MethodPost,
		Path:        "/v1/decompose",
		Query:       r.URL.Query(),
		Body:        body,
		ContentType: r.Header.Get("Content-Type"),
		Key:         key,
	})
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	forward(w, res)
}

// serveDecompose is the decompose routing pipeline behind the HTTP
// surface: the content-addressed result cache (when configured) wraps
// the distributed tiling path (when configured and the image is large
// enough), which wraps plain single-backend routing.
func (g *Gateway) serveDecompose(ctx context.Context, info *proto.RouteInfo, req *Request) (*Result, error) {
	return g.cachedDo(ctx, info, func() (*Result, error) {
		if treq := g.tileRequest(info); treq != nil {
			return g.tiledDecompose(ctx, treq)
		}
		return g.Do(ctx, req)
	})
}

func (g *Gateway) handleBanks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	res, err := g.Do(r.Context(), &Request{Method: http.MethodGet, Path: "/v1/banks"})
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	forward(w, res)
}

// forward copies the backend response through, tagging the origin.
func forward(w http.ResponseWriter, res *Result) {
	if ct := res.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if cv := res.Header.Get("X-Wavegate-Cache"); cv != "" {
		w.Header().Set("X-Wavegate-Cache", cv)
	}
	w.Header().Set("X-Wavegate-Backend", res.Backend)
	w.Header().Set("X-Wavegate-Attempts", strconv.Itoa(res.Attempts))
	w.WriteHeader(res.Status)
	w.Write(res.Body)
}

// writeGatewayError maps routing errors onto proto error envelopes:
// drain and no-backends are 503 (with Retry-After for well-behaved
// clients), an expired client deadline is 504, anything else 502 — each
// with its stable machine-readable code.
func writeGatewayError(w http.ResponseWriter, err error) {
	proto.WriteError(w, gatewayErrorEnvelope(err))
}

func gatewayErrorEnvelope(err error) *proto.Error {
	var nb *NoBackendsError
	var be *BudgetError
	switch {
	case errors.Is(err, ErrDraining):
		return proto.NewError(http.StatusServiceUnavailable, proto.CodeDraining, "%v", err)
	case errors.As(err, &nb):
		e := proto.NewError(http.StatusServiceUnavailable, proto.CodeNoBackends, "%v", err)
		e.RetryAfterSec = 1
		return e
	case errors.As(err, &be):
		return proto.NewError(http.StatusGatewayTimeout, proto.CodeBudget, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return proto.NewError(http.StatusGatewayTimeout, proto.CodeDeadline, "%v", err)
	case errors.Is(err, context.Canceled):
		return proto.NewError(http.StatusServiceUnavailable, proto.CodeCanceled, "%v", err)
	default:
		return proto.NewError(http.StatusBadGateway, proto.CodeBadGateway, "%v", err)
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyzBody is the /readyz JSON document.
type readyzBody struct {
	Ready    bool              `json:"ready"`
	Draining bool              `json:"draining"`
	Backends map[string]string `json:"backends"`
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	states := g.BreakerStates()
	body := readyzBody{Draining: g.Draining(), Backends: make(map[string]string, len(states))}
	routable := 0
	for name, st := range states {
		body.Backends[name] = st.String()
		if st != BreakerOpen {
			routable++
		}
	}
	body.Ready = !body.Draining && routable > 0
	w.Header().Set("Content-Type", "application/json")
	if !body.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(body)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.metrics.WriteProm(w)
}
