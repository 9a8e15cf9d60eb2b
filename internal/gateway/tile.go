package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/wavelet"
)

// Distributed tile decomposition: the gateway-level realization of the
// paper's Paragon stripe/halo scheme in one round trip. An oversized
// image is split by wavelet.PlanStripes into row stripes of kept rows
// plus a halo deep enough for all L levels; each stripe is shipped once
// to a backend as an L-level decompose in the exact float64 raster form,
// and the kept rows of every band of every returned sub-pyramid are
// placed straight into the output pyramid. The paper exchanges a guard
// zone per level; over HTTP each exchange would be a round trip, so the
// halo trades it for redundant computation: for kept height H and
// analysis filter length f it is the smallest multiple of 2^L with
// V_0 = H + halo, V_l = ⌊(V_{l-1}-f+2)/2⌋ >= H/2^l at every level,
// capped at R-H so no stripe is taller than the R-row image (a capped
// stripe is the image rotated by its 2^L-aligned start row, whose
// periodic transform is the rotated transform, so it is exact too).
// wavelet/stripe.go holds the geometry and why it is
// Float64bits-identical to the single-node transform.
//
// Sub-requests pin tol=0 (the bit-identical convolution tier) and assume
// backends run the default periodic extension; RouteKey.Shard spreads
// the same-shape stripes across the fleet instead of letting rendezvous
// affinity pile them onto one backend.

// tileRequest returns the decoded request when it takes the
// distributed tiling path: tiling configured, image tall enough, bank
// and levels explicit, tol=0 (the coordinator drives the decomposition
// itself, so it cannot defer to backend defaults or the lifting tier),
// a decomposable shape, and a payload that decodes to the shape its
// header declares. Otherwise it returns nil and the request is
// forwarded to one backend, so a payload that does not decode gets the
// backend's 400, the answer serve gives.
func (g *Gateway) tileRequest(info *proto.RouteInfo) *proto.DecomposeRequest {
	if g.cfg.TileRows <= 0 || !info.OK || !info.ShapeOK || info.Rows < g.cfg.TileRows ||
		info.Bank == "" || info.Levels < 1 || info.Tol != 0 ||
		wavelet.CheckDecomposable(info.Rows, info.Cols, info.Levels) != nil {
		return nil
	}
	req, perr := info.Decode()
	if perr != nil || req.Image.Rows != info.Rows || req.Image.Cols != info.Cols {
		return nil
	}
	return req
}

// tiledDecompose fans the stripes out as one L-level sub-request each,
// places their kept rows into the output pyramid and renders it in the
// requested output form. A stripe whose backend answers non-200
// short-circuits: that response is forwarded as the overall result so
// the client sees the authoritative backend diagnostic.
func (g *Gateway) tiledDecompose(ctx context.Context, req *proto.DecomposeRequest) (*Result, error) {
	stripes := g.cfg.TileStripes
	if stripes <= 0 {
		stripes = len(g.backends)
	}
	im := req.Image
	plan := wavelet.PlanStripes(im.Rows, req.Levels, req.Bank.DecLen(), stripes)
	q := url.Values{}
	q.Set("bank", req.BankName)
	q.Set("levels", strconv.Itoa(req.Levels))
	q.Set("output", proto.OutputPyramid)

	type stripeOut struct {
		res *Result
		err error
	}
	outs := make([]stripeOut, len(plan))
	var wg sync.WaitGroup
	for i, s := range plan {
		sub := s.Extract(im)
		body := bytes.NewBuffer(make([]byte, 0, proto.RasterSize(sub.Rows, sub.Cols)))
		if err := proto.EncodeRaster(body, sub); err != nil {
			return nil, fmt.Errorf("gateway: tiling: encoding stripe: %w", err)
		}
		sreq := &Request{
			Method:      http.MethodPost,
			Path:        "/v1/decompose",
			Query:       q,
			Body:        body.Bytes(),
			ContentType: proto.ContentTypeRaster,
			Key: RouteKey{
				Rows: sub.Rows, Cols: sub.Cols,
				Bank: req.BankName, Levels: req.Levels,
				Shard: i + 1,
			},
		}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			res, err := g.Do(ctx, sreq)
			outs[slot] = stripeOut{res: res, err: err}
		}(i)
		g.metrics.TileStripes.Add(1)
	}
	wg.Wait()

	p := wavelet.NewPyramid(im.Rows, im.Cols, req.Bank, filter.Periodic, req.Levels)
	attempts := 0
	for i, s := range plan {
		o := outs[i]
		if o.err != nil {
			return nil, o.err
		}
		attempts += o.res.Attempts
		if o.res.Status != http.StatusOK {
			return o.res, nil
		}
		sp, err := proto.DecodePyramid(bytes.NewReader(o.res.Body))
		if err == nil {
			err = s.Place(p, sp)
		}
		if err != nil {
			return nil, fmt.Errorf("gateway: tiling: stripe %d from %s: %w", i, o.res.Backend, err)
		}
	}

	g.metrics.TiledRequests.Add(1)
	buf := bytes.NewBuffer(make([]byte, 0, proto.DecomposeResponseSize(p, req.Output)))
	mw := &memResponseWriter{header: http.Header{}, body: buf}
	if err := proto.WriteDecomposeResponse(mw, p, req.Output); err != nil {
		return nil, fmt.Errorf("gateway: tiling: encoding response: %w", err)
	}
	return &Result{
		Status:   http.StatusOK,
		Header:   mw.header,
		Body:     buf.Bytes(),
		Backend:  "tiled",
		Attempts: attempts,
	}, nil
}

// memResponseWriter adapts proto's renderer onto an in-memory Result.
type memResponseWriter struct {
	header http.Header
	body   *bytes.Buffer
	status int
}

func (m *memResponseWriter) Header() http.Header { return m.header }

func (m *memResponseWriter) Write(p []byte) (int, error) { return m.body.Write(p) }

func (m *memResponseWriter) WriteHeader(status int) { m.status = status }
