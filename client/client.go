// Package client is the typed Go client for the wavelethpc HTTP API —
// the surface served by both waveserved (internal/serve) and wavegate
// (internal/gateway), which share one wire protocol (internal/proto).
//
// The client speaks the protocol's exact binary forms by default: images
// travel as float64 rasters and pyramids return through the binary
// pyramid codec, so a Decompose through the client is Float64bits-
// identical to calling the library in process. Service errors arrive as
// the protocol's JSON envelope and surface as *client.APIError carrying
// the stable machine-readable code:
//
//	c := client.New("http://localhost:8080")
//	pyr, err := c.Decompose(ctx, im, client.DecomposeRequest{Bank: "db8", Levels: 3})
//	var apiErr *client.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == client.CodeOverload {
//	        backOff(apiErr.RetryAfterSec)
//	}
package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/wavelet"
)

// APIError is a service-side failure decoded from the protocol's JSON
// error envelope. Code is stable across releases; Message is diagnostic
// text. Status is the HTTP status the service answered with.
type APIError = proto.Error

// The stable error codes an APIError can carry.
const (
	CodeBadRequest       = proto.CodeBadRequest
	CodeMethodNotAllowed = proto.CodeMethodNotAllowed
	CodeOverload         = proto.CodeOverload
	CodeDraining         = proto.CodeDraining
	CodeDeadline         = proto.CodeDeadline
	CodeCanceled         = proto.CodeCanceled
	CodeBudget           = proto.CodeBudget
	CodeNoBackends       = proto.CodeNoBackends
	CodeInternal         = proto.CodeInternal
	CodeBadGateway       = proto.CodeBadGateway
)

// DecomposeRequest selects the transform. The zero value defers every
// choice to the server's defaults.
type DecomposeRequest struct {
	// Bank names a registered filter bank ("db8", "bior4.4", ...);
	// empty uses the server default.
	Bank string
	// Levels is the decomposition depth; 0 uses the server default.
	Levels int
	// Tol opts into the lifting fast tier with the given relative drift
	// tolerance; 0 keeps the bit-identical convolution tier.
	Tol float64
}

// Client talks to one waveserved or wavegate base URL. The zero value is
// not usable; construct with New. Client is safe for concurrent use.
type Client struct {
	base  string
	httpc *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport tuning, test doubles). The default is http.DefaultClient.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc = h }
}

// New returns a Client for the service at baseURL (scheme and host,
// e.g. "http://localhost:8080"; any trailing slash is trimmed).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), httpc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Decompose runs a multi-resolution decomposition of im on the service
// and returns the pyramid. The image travels in the exact float64 raster
// form and the result in the binary pyramid codec, so the pyramid is
// Float64bits-identical to the in-process transform (when Tol is 0).
func (c *Client) Decompose(ctx context.Context, im *image.Image, req DecomposeRequest) (*wavelet.Pyramid, error) {
	var p *wavelet.Pyramid
	err := c.decomposeRaster(ctx, im, req, proto.OutputPyramid, func(body io.Reader) (err error) {
		if p, err = proto.DecodePyramid(body); err != nil {
			return fmt.Errorf("client: decoding pyramid: %w", err)
		}
		return nil
	})
	return p, err
}

// Roundtrip decomposes and reconstructs im on the service, returning the
// reconstruction. For integer-valued input the result equals the input
// exactly; it is the end-to-end self-check the CI smoke tests use.
func (c *Client) Roundtrip(ctx context.Context, im *image.Image, req DecomposeRequest) (*image.Image, error) {
	return c.pgmOutput(ctx, im, req, proto.OutputRoundtrip)
}

// Mosaic decomposes im and returns the classical pyramid mosaic
// rendering, normalized to [0, 255].
func (c *Client) Mosaic(ctx context.Context, im *image.Image, req DecomposeRequest) (*image.Image, error) {
	return c.pgmOutput(ctx, im, req, proto.OutputMosaic)
}

func (c *Client) pgmOutput(ctx context.Context, im *image.Image, req DecomposeRequest, output string) (*image.Image, error) {
	var out *image.Image
	err := c.decomposeRaster(ctx, im, req, output, func(body io.Reader) (err error) {
		if out, err = image.ReadPGM(body); err != nil {
			return fmt.Errorf("client: decoding %s response: %w", output, err)
		}
		return nil
	})
	return out, err
}

// decomposeRaster posts im in the raster form with the given output and
// hands a 2xx response body to decode as a stream.
func (c *Client) decomposeRaster(ctx context.Context, im *image.Image, req DecomposeRequest, output string, decode func(io.Reader) error) error {
	if im == nil {
		return fmt.Errorf("client: nil image")
	}
	body := bytes.NewBuffer(make([]byte, 0, proto.RasterSize(im.Rows, im.Cols)))
	if err := proto.EncodeRaster(body, im); err != nil {
		return fmt.Errorf("client: encoding raster: %w", err)
	}
	q := req.query()
	q.Set("output", output)
	hreq, err := c.newRequest(ctx, http.MethodPost, "/v1/decompose?"+q.Encode(), proto.ContentTypeRaster, body.Bytes())
	if err != nil {
		return err
	}
	return c.do(hreq, decode)
}

// DecomposeJSON sends the versioned v1 JSON body form carrying a binary
// PGM image and returns the raw response body — PGM bytes for
// output mosaic/roundtrip, pyramid-codec bytes for output pyramid. It is
// the wire form for callers that already hold serialized PGM data.
func (c *Client) DecomposeJSON(ctx context.Context, pgm []byte, req DecomposeRequest, output string) ([]byte, error) {
	body, err := proto.EncodeDecomposeJSON(req.Bank, req.Levels, req.Tol, output, pgm)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	return c.post(ctx, "/v1/decompose", proto.ContentTypeJSON, body)
}

// Banks lists the filter banks registered on the service.
func (c *Client) Banks(ctx context.Context) ([]string, error) {
	body, err := c.get(ctx, "/v1/banks")
	if err != nil {
		return nil, err
	}
	var names []string
	for _, line := range strings.Split(string(body), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			names = append(names, line)
		}
	}
	return names, nil
}

// Healthy reports service liveness (/healthz): nil while the process
// accepts work, an *APIError or transport error otherwise.
func (c *Client) Healthy(ctx context.Context) error {
	_, err := c.get(ctx, "/healthz")
	return err
}

// query renders the request's decompose parameters in the legacy query
// form shared by all wire forms.
func (r DecomposeRequest) query() url.Values {
	q := url.Values{}
	if r.Bank != "" {
		q.Set("bank", r.Bank)
	}
	if r.Levels != 0 {
		q.Set("levels", strconv.Itoa(r.Levels))
	}
	if r.Tol != 0 {
		q.Set("tol", strconv.FormatFloat(r.Tol, 'g', -1, 64))
	}
	return q
}

func (c *Client) post(ctx context.Context, path, contentType string, body []byte) ([]byte, error) {
	req, err := c.newRequest(ctx, http.MethodPost, path, contentType, body)
	if err != nil {
		return nil, err
	}
	return c.readAll(req)
}

func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := c.newRequest(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return nil, err
	}
	return c.readAll(req)
}

func (c *Client) newRequest(ctx context.Context, method, path, contentType string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return req, nil
}

// readAll executes req and returns the whole 2xx response body.
func (c *Client) readAll(req *http.Request) ([]byte, error) {
	var body []byte
	err := c.do(req, func(r io.Reader) (err error) {
		if body, err = io.ReadAll(r); err != nil {
			return fmt.Errorf("client: reading response: %w", err)
		}
		return nil
	})
	return body, err
}

// do executes req, hands a 2xx response body to decode as a stream and
// then drains it to EOF, so the keep-alive connection is reused. Non-2xx
// responses map onto *APIError via the protocol's error envelope;
// responses that are not an envelope (proxies, panics) surface as
// CodeInternal with the body text.
func (c *Client) do(req *http.Request, decode func(io.Reader) error) error {
	resp, err := c.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("client: reading response: %w", err)
		}
		return proto.DecodeError(resp.StatusCode, body)
	}
	if err := decode(resp.Body); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	return nil
}
