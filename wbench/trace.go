package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing. Spans come only from this package's own code: a root span per
// operation, an http.RoundTripper around the client, another around the
// gateway's backend attempts and tile sub-requests, and middleware around
// serve.Handler() and gateway.Handler(). Inside one process the parent
// span travels in the request context; across an HTTP hop it travels in
// traceHeader, which only the benchmark reads. Spans stay in memory and
// are written at exit in the Chrome trace_event format.

// traceHeader carries "<trace id>-<parent span id>" across an HTTP hop.
const traceHeader = "X-Wbench-Span"

// Layer names of the spans.
const (
	layerBench   = "bench"   // root span of one operation
	layerClient  = "client"  // client RoundTripper: send to last response byte
	layerGateway = "gateway" // middleware around gateway.Handler()
	layerNet     = "net"     // gateway -> backend attempt RoundTripper
	layerServe   = "serve"   // middleware around serve.Handler()
	layerCore    = "core"    // in-process parallel transform call
)

type span struct {
	id, parent, trace uint64
	layer, name       string
	start, end        time.Duration // since the tracer's epoch
	// cache and backend are the gateway's X-Wavegate-Cache and
	// X-Wavegate-Backend answers; attempts its X-Wavegate-Attempts.
	cache, backend string
	attempts       int
	// reqBytes and respBytes are body sizes seen by the client wrapper.
	reqBytes, respBytes int64
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer records spans while on; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// start opens a span under the span in ctx (or a new trace) and returns
// the context carrying it. It returns (ctx, nil) when not recording.
func (t *tracer) start(ctx context.Context, layer, name string) (context.Context, *span) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	s := &span{id: t.ids.Add(1), layer: layer, name: name, start: time.Since(t.epoch)}
	if p, ok := ctx.Value(spanKey{}).(*span); ok {
		s.parent, s.trace = p.id, p.trace
	} else {
		s.trace = s.id
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// startRemote opens a span whose parent arrived in traceHeader.
func (t *tracer) startRemote(r *http.Request, layer, name string) (*http.Request, *span) {
	if t == nil || !t.on.Load() {
		return r, nil
	}
	trace, parent, ok := parseTraceHeader(r.Header.Get(traceHeader))
	if !ok {
		return r, nil
	}
	s := &span{id: t.ids.Add(1), parent: parent, trace: trace, layer: layer, name: name, start: time.Since(t.epoch)}
	return r.WithContext(context.WithValue(r.Context(), spanKey{}, s)), s
}

func (t *tracer) finish(s *span) {
	if s == nil {
		return
	}
	s.end = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func parseTraceHeader(v string) (trace, parent uint64, ok bool) {
	a, b, found := strings.Cut(v, "-")
	if !found {
		return 0, 0, false
	}
	tr, err1 := strconv.ParseUint(a, 10, 64)
	pa, err2 := strconv.ParseUint(b, 10, 64)
	return tr, pa, err1 == nil && err2 == nil
}

// roundTripper wraps an http.RoundTripper with one span per round trip,
// ending when the response body is closed. It forwards the span in
// traceHeader and records the gateway's answer headers.
type roundTripper struct {
	t     *tracer
	layer string
	next  http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, traced := req.Context().Value(spanKey{}).(*span); !traced {
		// Health probes and other untraced calls pass straight through.
		return rt.next.RoundTrip(req)
	}
	ctx, s := rt.t.start(req.Context(), rt.layer, req.Method+" "+req.URL.Path)
	if s == nil {
		return rt.next.RoundTrip(req)
	}
	req = req.Clone(ctx)
	req.Header.Set(traceHeader, fmt.Sprintf("%d-%d", s.trace, s.id))
	s.reqBytes = req.ContentLength
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		rt.t.finish(s)
		return nil, err
	}
	s.cache = resp.Header.Get("X-Wavegate-Cache")
	s.backend = resp.Header.Get("X-Wavegate-Backend")
	s.attempts, _ = strconv.Atoi(resp.Header.Get("X-Wavegate-Attempts"))
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    *span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.respBytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.finish(b.s) })
	return err
}

// middleware wraps a handler with one span per request, parented by the
// caller's traceHeader.
func (t *tracer) middleware(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r, s := t.startRemote(r, layer, r.Method+" "+r.URL.Path)
		h.ServeHTTP(w, r)
		if s != nil {
			s.cache = w.Header().Get("X-Wavegate-Cache")
			s.backend = w.Header().Get("X-Wavegate-Backend")
			s.attempts, _ = strconv.Atoi(w.Header().Get("X-Wavegate-Attempts"))
			t.finish(s)
		}
	})
}

// spanTree indexes a set of spans for self-time analysis.
type spanTree struct {
	spans    []*span
	children map[uint64][]*span
}

func newSpanTree(spans []*span) *spanTree {
	t := &spanTree{spans: spans, children: map[uint64][]*span{}}
	for _, s := range spans {
		if s.parent != 0 {
			t.children[s.parent] = append(t.children[s.parent], s)
		}
	}
	return t
}

// self is the span's duration minus the part of it its children cover
// (children may overlap, as tile sub-requests do).
func (t *spanTree) self(s *span) time.Duration {
	kids := t.children[s.id]
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			covered += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	covered += curB - curA
	return s.dur() - covered
}

func (t *spanTree) layer(name string) []*span {
	var out []*span
	for _, s := range t.spans {
		if s.layer == name {
			out = append(out, s)
		}
	}
	return out
}

// selfShares returns each layer's self time as a share of the summed
// root-span wall time; the bench layer's share is the time no layer
// accounts for.
func (t *spanTree) selfShares() map[string]float64 {
	var wall time.Duration
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.parent == 0 {
			wall += s.dur()
		}
		self[s.layer] += t.self(s)
	}
	out := map[string]float64{}
	if wall == 0 {
		return out
	}
	for l, d := range self {
		out[l] = float64(d) / float64(wall)
	}
	return out
}

// chromeEvent is one trace_event record ("X" complete, "M" metadata),
// the shape internal/nx writes for simulated runs.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// tracePass is one traced run of a workload, one process in the trace.
type tracePass struct {
	name   string
	spans  []*span
	shares map[string]float64
}

var layerTIDs = map[string]int{layerBench: 0, layerClient: 1, layerGateway: 2, layerNet: 3, layerServe: 4, layerCore: 5}

// writeChromeTrace writes the passes as a Chrome trace_event document:
// one process per pass, one thread per layer. The per-layer self-time
// shares ride in otherData.
func writeChromeTrace(w io.Writer, passes []tracePass) error {
	var events []chromeEvent
	other := map[string]any{}
	for pid, p := range passes {
		events = append(events, chromeEvent{Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": p.name}})
		for l, tid := range layerTIDs {
			events = append(events, chromeEvent{Name: "thread_name", Phase: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": l}})
		}
		for _, s := range p.spans {
			args := map[string]any{"trace": s.trace, "span": s.id, "parent": s.parent}
			if s.cache != "" {
				args["cache"] = s.cache
			}
			if s.backend != "" {
				args["backend"] = s.backend
			}
			events = append(events, chromeEvent{Name: s.layer + ":" + s.name, Phase: "X",
				TS: us(s.start), Dur: us(s.dur()), PID: pid, TID: layerTIDs[s.layer], Args: args})
		}
		other[p.name+".self_share"] = p.shares
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "otherData": other})
}
