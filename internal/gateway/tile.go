package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/wavelet"
)

// Distributed tile decomposition: the gateway-level realization of the
// paper's Paragon stripe/halo scheme. An oversized image is split into
// row stripes, each stripe (plus a filter-length halo) is shipped to a
// backend as a one-level decompose in the exact float64 raster form, and
// the returned sub-pyramids are stitched into the global level — then
// the stitched LL recurses for the next level. The result is
// Float64bits-identical to the single-node transform because
//
//   - horizontal filtering touches each row independently and every
//     stripe carries full-width rows, and
//   - the vertical filter is causal (output row j reads input rows
//     2j .. 2j+f-1), so output rows [r0/2, r0/2+H/2) need exactly input
//     rows [r0, r0+H+f-2); the halo supplies them, wrapping modulo the
//     level height so stripe row m IS global row (r0+m) mod R — the
//     global periodic extension, reproduced exactly even when the halo
//     wraps all the way around a small level.
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

// tiledDecompose coordinates the stripe fan-out level by level and
// renders the stitched pyramid in the requested output form. A stripe
// whose backend answers non-200 short-circuits: that response is
// forwarded as the overall result so the client sees the authoritative
// backend diagnostic.
func (g *Gateway) tiledDecompose(ctx context.Context, req *proto.DecomposeRequest) (*Result, error) {
	stripes := g.cfg.TileStripes
	if stripes <= 0 {
		stripes = len(g.backends)
	}
	cur := req.Image
	p := &wavelet.Pyramid{Bank: req.Bank, Ext: filter.Periodic, Levels: make([]wavelet.DetailBands, req.Levels)}
	attempts := 0
	for l := 0; l < req.Levels; l++ {
		level, n, err := g.tileOneLevel(ctx, req.BankName, req.Bank, cur, stripes)
		if err != nil {
			return nil, err
		}
		if level.errResult != nil {
			return level.errResult, nil
		}
		attempts += n
		p.Levels[req.Levels-1-l] = wavelet.DetailBands{LH: level.lh, HL: level.hl, HH: level.hh}
		cur = level.ll
	}
	p.Approx = cur

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

// stitchedLevel is one stitched decomposition level.
type stitchedLevel struct {
	ll, lh, hl, hh *image.Image
	// errResult carries a backend's non-200 response verbatim when a
	// stripe was refused.
	errResult *Result
}

// tileOneLevel splits cur into row stripes with halos, fans them out as
// one-level pyramid sub-requests, and stitches the kept output rows.
func (g *Gateway) tileOneLevel(ctx context.Context, bankName string, bank *filter.Bank, cur *image.Image, stripes int) (*stitchedLevel, int, error) {
	rows, cols := cur.Rows, cur.Cols
	half := rows / 2
	shares := stripeShares(half, stripes)
	// Causal analysis support: output row j reads input rows 2j..2j+f-1,
	// so a stripe of H input rows needs f-2 extra rows below, rounded up
	// to even so the sub-image height stays decomposable.
	halo := bank.DecLen() - 2
	if halo < 0 {
		halo = 0
	}
	halo = (halo + 1) &^ 1

	type stripeOut struct {
		res      *Result
		err      error
		attempts int
	}
	outs := make([]stripeOut, len(shares))
	var wg sync.WaitGroup
	r0 := 0
	for i, share := range shares {
		h := 2 * share
		sub := extractStripe(cur, r0, h+halo)
		q := url.Values{}
		q.Set("bank", bankName)
		q.Set("levels", "1")
		q.Set("output", proto.OutputPyramid)
		body := bytes.NewBuffer(make([]byte, 0, proto.RasterSize(sub.Rows, sub.Cols)))
		if err := proto.EncodeRaster(body, sub); err != nil {
			return nil, 0, fmt.Errorf("gateway: tiling: encoding stripe: %w", err)
		}
		req := &Request{
			Method:      http.MethodPost,
			Path:        "/v1/decompose",
			Query:       q,
			Body:        body.Bytes(),
			ContentType: proto.ContentTypeRaster,
			Key: RouteKey{
				Rows: sub.Rows, Cols: sub.Cols,
				Bank: bankName, Levels: 1,
				Shard: i + 1,
			},
		}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			res, err := g.Do(ctx, req)
			outs[slot] = stripeOut{res: res, err: err}
			if res != nil {
				outs[slot].attempts = res.Attempts
			}
		}(i)
		g.metrics.TileStripes.Add(1)
		r0 += h
	}
	wg.Wait()

	level := &stitchedLevel{
		ll: image.New(half, cols/2),
		lh: image.New(half, cols/2),
		hl: image.New(half, cols/2),
		hh: image.New(half, cols/2),
	}
	attempts := 0
	r0 = 0
	for i, share := range shares {
		o := outs[i]
		if o.err != nil {
			return nil, 0, o.err
		}
		attempts += o.attempts
		if o.res.Status != http.StatusOK {
			level.errResult = o.res
			return level, attempts, nil
		}
		sp, err := proto.DecodePyramid(bytes.NewReader(o.res.Body))
		if err != nil {
			return nil, 0, fmt.Errorf("gateway: tiling: stripe %d from %s: %w", i, o.res.Backend, err)
		}
		if sp.Depth() != 1 || sp.Approx.Rows < share || sp.Approx.Cols != cols/2 {
			return nil, 0, fmt.Errorf("gateway: tiling: stripe %d from %s: unexpected %dx%d depth-%d pyramid",
				i, o.res.Backend, sp.Approx.Rows, sp.Approx.Cols, sp.Depth())
		}
		// Keep output rows [0, share): the halo rows beyond them belong
		// to the next stripe (or wrapped around) and are discarded.
		placeRows(level.ll, sp.Approx, r0, share)
		placeRows(level.lh, sp.Levels[0].LH, r0, share)
		placeRows(level.hl, sp.Levels[0].HL, r0, share)
		placeRows(level.hh, sp.Levels[0].HH, r0, share)
		r0 += share
	}
	return level, attempts, nil
}

// stripeShares distributes half output rows over at most stripes
// stripes, each getting at least one (stripes is capped at half).
func stripeShares(half, stripes int) []int {
	if stripes > half {
		stripes = half
	}
	if stripes < 1 {
		stripes = 1
	}
	base, rem := half/stripes, half%stripes
	shares := make([]int, stripes)
	for i := range shares {
		shares[i] = base
		if i < rem {
			shares[i]++
		}
	}
	return shares
}

// extractStripe copies h full-width rows starting at r0, wrapping row
// indices modulo the level height — the wrap IS the periodic extension
// the single-node transform applies at the image boundary.
func extractStripe(im *image.Image, r0, h int) *image.Image {
	out := image.New(h, im.Cols)
	for m := 0; m < h; m++ {
		copy(out.Row(m), im.Row((r0+m)%im.Rows))
	}
	return out
}

// placeRows copies src rows [0, n) into dst rows [r0, r0+n).
func placeRows(dst, src *image.Image, r0, n int) {
	for m := 0; m < n; m++ {
		copy(dst.Row(r0+m), src.Row(m))
	}
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
