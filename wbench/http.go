package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"wavelethpc/client"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/gateway"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/serve"
	"wavelethpc/internal/wavelet"
)

// The service and fleet workloads: closed-loop client.Client callers
// over loopback HTTP, against one serve.Server (service) or a caching,
// tiling gateway in front of two serve backends (fleet).

const (
	httpLevels  = 3
	httpCallers = 2
)

type opKind int

const (
	opDecompose opKind = iota // raster in, pyramid codec out
	opRoundtrip               // raster in, reconstruction PGM out
	opMosaic                  // v1 JSON with PGM in, mosaic PGM out
)

func (k opKind) String() string {
	return [...]string{"decompose", "roundtrip", "mosaic"}[k]
}

// httpOp is one distinct request and its expected response.
type httpOp struct {
	kind   opKind
	img    int
	bank   bankSpec
	want   pyramidWant // opDecompose
	mosaic []byte      // opMosaic
}

// stack is the running system under test.
type stack struct {
	url        string
	client     *client.Client
	servers    []*serve.Server
	gw         *gateway.Gateway
	https      []*httptest.Server // backends first, the front last
	transports []*http.Transport
}

func (s *stack) close() {
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n := len(s.https); n > 0 && s.gw != nil {
		s.https[n-1].Close()
		s.https = s.https[:n-1]
		s.gw.Shutdown(ctx)
	}
	for _, h := range s.https {
		h.Close()
	}
	for _, srv := range s.servers {
		srv.Shutdown(ctx)
	}
}

// startBackend runs one serve.Server behind an HTTP listener.
func startBackend(st *stack, o options, tr *tracer, workers int) (string, error) {
	srv, err := serve.New(serve.Config{Workers: workers, Levels: httpLevels})
	if err != nil {
		return "", err
	}
	st.servers = append(st.servers, srv)
	h := srv.Handler()
	if o.wrapBackend != nil {
		h = o.wrapBackend(h)
	}
	if tr != nil {
		h = tr.middleware(layerServe, h)
	}
	hs := httptest.NewServer(h)
	st.https = append(st.https, hs)
	return hs.URL, nil
}

// attachClient builds the callers' client: one transport with at most
// httpCallers connections, wrapped for tracing when tr is set.
func attachClient(st *stack, tr *tracer) {
	t := &http.Transport{MaxIdleConnsPerHost: httpCallers, MaxConnsPerHost: httpCallers}
	st.transports = append(st.transports, t)
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &roundTripper{t: tr, layer: layerClient, next: t}
	}
	st.client = client.New(st.url, client.WithHTTPClient(&http.Client{Transport: rt, Timeout: time.Minute}))
}

// httpEnv is a set-up service or fleet workload.
type httpEnv struct {
	seed   uint64
	images []*image.Image
	pgms   [][]byte
	ops    []httpOp
	// deck is one cycle of operation indices; its composition is fixed
	// and each caller plays it in its own seeded order per cycle.
	deck   []int
	st     *stack
	cycles [httpCallers]int
}

func (e *httpEnv) payloadImages() []*image.Image { return e.images }

// close stops the stack; it is safe to call more than once.
func (e *httpEnv) close() {
	if e.st != nil {
		e.st.close()
		e.st = nil
	}
}

func (e *httpEnv) addImage(rows, cols int, seed uint64) error {
	im := landsat(rows, cols, seed)
	var buf bytes.Buffer
	if err := image.WritePGM(&buf, im); err != nil {
		return err
	}
	e.images = append(e.images, im)
	e.pgms = append(e.pgms, buf.Bytes())
	return nil
}

// addOp computes the expected response of one distinct request.
func (e *httpEnv) addOp(kind opKind, img int, b bankSpec) error {
	op := httpOp{kind: kind, img: img, bank: b}
	im := e.images[img]
	switch kind {
	case opDecompose:
		w, err := expectPyramid(im, b, httpLevels)
		if err != nil {
			return err
		}
		op.want = w
	case opMosaic:
		p, err := wavelet.DecomposeTol(im, b.bank, filter.Periodic, httpLevels, b.tol)
		if err != nil {
			return err
		}
		if op.mosaic, err = mosaicPGM(p); err != nil {
			return err
		}
	}
	e.ops = append(e.ops, op)
	return nil
}

// serviceShapes are non-square 64²..256² images, all 3-level decomposable.
func serviceShapes(tiny bool) [][2]int {
	if tiny {
		return [][2]int{{32, 64}, {64, 32}, {64, 64}, {32, 32}}
	}
	return [][2]int{{64, 128}, {128, 64}, {128, 192}, {192, 128}, {256, 128}, {128, 256}, {256, 192}, {256, 256}}
}

func serviceBanks() []bankSpec {
	return []bankSpec{convBank("db8"), convBank("haar"), liftedBank("bior4.4"), liftedBank("rbio4.4")}
}

// Per (image, bank), one cycle of the service deck holds this many
// requests of each kind: 5 of 7 are Decompose.
var serviceMix = [...]struct {
	kind  opKind
	count int
}{{opDecompose, 5}, {opRoundtrip, 1}, {opMosaic, 1}}

// genService builds the service workload's inputs and expected outputs.
func genService(o options) (*httpEnv, error) {
	e := &httpEnv{seed: o.seed}
	for i, sh := range serviceShapes(o.tiny) {
		if err := e.addImage(sh[0], sh[1], derive(o.seed, 3, uint64(i))); err != nil {
			return nil, err
		}
	}
	for img := range e.images {
		for _, b := range serviceBanks() {
			for _, m := range serviceMix {
				if err := e.addOp(m.kind, img, b); err != nil {
					return nil, err
				}
				for k := 0; k < m.count; k++ {
					e.deck = append(e.deck, len(e.ops)-1)
				}
			}
		}
	}
	return e, nil
}

func setupService(o options, tr *tracer) (workloadEnv, error) {
	e, err := genService(o)
	if err != nil {
		return nil, err
	}
	e.st = &stack{}
	if e.st.url, err = startBackend(e.st, o, tr, o.workers); err != nil {
		e.close()
		return nil, err
	}
	attachClient(e.st, tr)
	// Warm the Decomposer pools and the connections: every distinct
	// pyramid request once.
	for i, op := range e.ops {
		if op.kind == opDecompose {
			if _, err := e.do(context.Background(), i); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return e, nil
}

// fleetShapes are the ordinary shapes and the tall shape that tiles.
func fleetShapes(tiny bool) (ordinary [][2]int, tall [2]int, tileRows int) {
	if tiny {
		return [][2]int{{32, 32}, {64, 32}}, [2]int{128, 32}, 96
	}
	return [][2]int{{128, 128}, {256, 128}, {128, 256}, {256, 256}}, [2]int{1024, 256}, 512
}

const (
	fleetOrdinary = 24  // distinct ordinary images
	fleetTall     = 6   // distinct tall images
	fleetDeck     = 100 // requests per deck cycle, 1 in 5 tall
	// fleetZipf is the popularity exponent. With the quarter-size cache
	// it gives a hit ratio near one third, which keeps the latency median
	// clear of the boundary between hits and misses.
	fleetZipf = 0.7
)

// genFleet builds the fleet pool: distinct images with Zipf popularity
// (weights 1/rank^fleetZipf within the ordinary and the tall class), db8
// or haar at tol 0, every fifth a Roundtrip. The cache budget is a
// quarter of the pool's response bytes.
func genFleet(o options) (e *httpEnv, cacheBytes int64, err error) {
	e = &httpEnv{seed: o.seed}
	ordinary, tall, _ := fleetShapes(o.tiny)
	banks := []bankSpec{convBank("db8"), convBank("haar")}
	var respBytes int64
	addItem := func(i, rows, cols int) error {
		if err := e.addImage(rows, cols, derive(o.seed, 4, uint64(i))); err != nil {
			return err
		}
		kind := opDecompose
		if i%5 == 4 {
			kind = opRoundtrip
		}
		respBytes += responseBytes(kind, rows, cols)
		return e.addOp(kind, len(e.images)-1, banks[i%2])
	}
	for i := 0; i < fleetOrdinary; i++ {
		sh := ordinary[i%len(ordinary)]
		if err := addItem(i, sh[0], sh[1]); err != nil {
			return nil, 0, err
		}
	}
	for i := fleetOrdinary; i < fleetOrdinary+fleetTall; i++ {
		if err := addItem(i, tall[0], tall[1]); err != nil {
			return nil, 0, err
		}
	}
	// Popularity follows the item index, not the seed, so every seed runs
	// the same composition; the seed sets image content and order.
	rank := func(lo, n, total int) {
		for k, c := range zipfCounts(n, total, fleetZipf) {
			for j := 0; j < c; j++ {
				e.deck = append(e.deck, lo+k)
			}
		}
	}
	rank(0, fleetOrdinary, fleetDeck*4/5)
	rank(fleetOrdinary, fleetTall, fleetDeck/5)
	return e, respBytes / 4, nil
}

// responseBytes approximates a response body's size: float64
// coefficients for a pyramid, one byte per pixel for a PGM, plus headers.
func responseBytes(kind opKind, rows, cols int) int64 {
	if kind == opDecompose {
		return int64(8*rows*cols + 64)
	}
	return int64(rows*cols + 16)
}

func setupFleet(o options, tr *tracer) (workloadEnv, error) {
	e, cacheBytes, err := genFleet(o)
	if err != nil {
		return nil, err
	}
	_, _, tileRows := fleetShapes(o.tiny)
	e.st = &stack{}
	var backends []string
	for i := 0; i < 2; i++ {
		u, err := startBackend(e.st, o, tr, 1)
		if err != nil {
			e.close()
			return nil, err
		}
		backends = append(backends, u)
	}
	gt := &http.Transport{MaxIdleConnsPerHost: 2 * httpCallers}
	e.st.transports = append(e.st.transports, gt)
	var rt http.RoundTripper = gt
	if tr != nil {
		rt = &roundTripper{t: tr, layer: layerNet, next: gt}
	}
	gw, err := gateway.New(gateway.Config{
		Backends: backends,
		// The routing seed is fleet configuration, not workload input:
		// fixed, so that every workload seed sees the same shape-to-backend
		// placement.
		Seed:        1,
		CacheBytes:  cacheBytes,
		TileRows:    tileRows,
		TileStripes: 2,
		Transport:   rt,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.st.gw = gw
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = tr.middleware(layerGateway, h)
	}
	front := httptest.NewServer(h)
	e.st.https = append(e.st.https, front)
	e.st.url = front.URL
	attachClient(e.st, tr)
	// Warm pools, connections and the cache: every distinct request once.
	for i := range e.ops {
		if _, err := e.do(context.Background(), i); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

// do sends one request. It returns the call's error (a failed or
// refused request) and, on success, the check of the response against
// the expected output.
func (e *httpEnv) do(ctx context.Context, i int) (func() error, error) {
	op := &e.ops[i]
	im := e.images[op.img]
	req := client.DecomposeRequest{Bank: op.bank.name, Levels: httpLevels, Tol: op.bank.tol}
	c := e.st.client
	switch op.kind {
	case opDecompose:
		p, err := c.Decompose(ctx, im, req)
		return func() error { return op.want.check(p) }, err
	case opRoundtrip:
		out, err := c.Roundtrip(ctx, im, req)
		return func() error { return checkRoundtrip(im, out) }, err
	default:
		body, err := c.DecomposeJSON(ctx, e.pgms[op.img], req, proto.OutputMosaic)
		return func() error {
			if !bytes.Equal(body, op.mosaic) {
				return fmt.Errorf("mosaic PGM differs from the in-process rendering")
			}
			return nil
		}, err
	}
}

// run drives httpCallers closed-loop callers until d has passed and
// each has finished its deck cycle.
func (e *httpEnv) run(d time.Duration, tr *tracer) *loopStats {
	total := &loopStats{}
	per := make([]*loopStats, httpCallers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < httpCallers; c++ {
		per[c] = newLoopStats(1)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.caller(c, deadline, per[c], tr)
		}(c)
	}
	wg.Wait()
	total.wall = time.Since(start)
	for _, st := range per {
		total.merge(st)
	}
	return total
}

func (e *httpEnv) caller(c int, deadline time.Time, st *loopStats, tr *tracer) {
	// Callers play whole deck cycles, so every run sends the same
	// composition; a run ends with the cycle that crosses the deadline.
	var order []int
	for n := 0; time.Now().Before(deadline) || n%len(e.deck) != 0; n++ {
		if n%len(e.deck) == 0 {
			order = shuffled(e.deck, derive(e.seed, 6, uint64(c), uint64(e.cycles[c])))
			e.cycles[c]++
		}
		i := order[n%len(order)]
		st.issued[0] = append(st.issued[0], i)
		op := &e.ops[i]
		ctx, root := tr.start(context.Background(), layerBench, op.kind.String()+" "+op.bank.String())
		t := time.Now()
		check, callErr := e.do(ctx, i)
		dt := time.Since(t)
		tr.finish(root)
		if st.record(dt, callErr, check) {
			im := e.images[op.img]
			mpix := float64(im.Rows*im.Cols) / 1e6
			st.fwdMpix += mpix
			if op.kind == opRoundtrip {
				st.invMpix += mpix
			}
		}
	}
}

// httpMetrics derives the end-to-end figures of a service or fleet run:
// request rate, megapixels decomposed (every request) and reconstructed
// (Roundtrip requests) per second of wall time, and request latency.
func httpMetrics(st *loopStats) map[string]float64 {
	wall := st.wall.Seconds()
	return map[string]float64{
		"decompose_mpix_per_s":   st.fwdMpix / wall,
		"reconstruct_mpix_per_s": st.invMpix / wall,
		"requests_per_s":         float64(st.completed()) / wall,
		"latency_p50_ms":         quantile(st.lat, 0.5),
		"latency_p95_ms":         quantile(st.lat, 0.95),
	}
}
