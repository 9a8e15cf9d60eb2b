// Package proto is the shared wire protocol of the decomposition
// services: the one place the serve layer (internal/serve), the shard
// gateway (internal/gateway), and the typed Go client (package client)
// agree on how a decompose request, its response forms, and its error
// envelope look on the wire.
//
// A /v1/decompose request arrives in one of three body forms, selected
// by Content-Type:
//
//   - legacy binary PGM (any Content-Type not listed below): the body
//     is a P5 PGM and the decompose parameters ride in the query string
//     (filter/bank, levels, tol, output) — the PR 5/PR 7 form, kept
//     compatible forever and pinned by the legacy-compat test suites;
//   - application/json: the versioned v1 JSON form — a single
//     {"v":1, "bank":…, "levels":…, "tol":…, "output":…, "image_pgm":…}
//     document with the PGM bytes base64-encoded by encoding/json.
//     Query parameters and the JSON form are mutually exclusive;
//   - application/x-wavelet-raster: the exact float64 raster codec
//     (EncodeRaster), used by the gateway's distributed tiling path
//     where 8-bit PGM would truncate intermediate coefficients.
//
// One parser reads all three: a query-parameter step and a JSON
// wire-document step, neither of which decodes pixels, and one image
// decoder. ParseDecompose (serve) streams the body through them;
// ParseRouteInfo (the gateway) runs the same steps on a buffered body,
// so the gateway routes, caches and tiles exactly the requests serve
// accepts.
//
// Responses come back as a PGM (output=mosaic or roundtrip) or as the
// exact binary pyramid codec (output=pyramid, EncodePyramid) whose
// float64 bit patterns round-trip untouched. Errors are a versioned
// JSON envelope carrying a stable machine-readable code (Error); the
// HTTP status keys the transport behavior, the code the semantics.
package proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// Version is the wire protocol version spoken by this package. Version
// bumps are deliberate events: the golden wire-compat tests pin every
// v1 surface byte for byte.
const Version = 1

// Content types of the request and response bodies.
const (
	// ContentTypePGM is the binary P5 PGM form (legacy request body,
	// mosaic/roundtrip response body).
	ContentTypePGM = "image/x-portable-graymap"
	// ContentTypeJSON is the versioned v1 JSON request form.
	ContentTypeJSON = "application/json"
	// ContentTypeRaster is the exact float64 raster request form
	// (EncodeRaster/DecodeRaster).
	ContentTypeRaster = "application/x-wavelet-raster"
	// ContentTypePyramid is the exact binary pyramid response form
	// (EncodePyramid/DecodePyramid).
	ContentTypePyramid = "application/x-wavelet-pyramid"
)

// Output forms of a decompose response.
const (
	// OutputMosaic renders the classical pyramid mosaic normalized to
	// [0, 255] as a PGM (the default; lossy by construction).
	OutputMosaic = "mosaic"
	// OutputRoundtrip reconstructs the pyramid and returns the
	// reconstruction as a PGM (byte-exact for integer-valued input).
	OutputRoundtrip = "roundtrip"
	// OutputPyramid returns the exact binary pyramid codec: every
	// float64 coefficient bit-identical to the in-process transform.
	OutputPyramid = "pyramid"
)

// Stable error codes carried by the Error envelope. Clients branch on
// these, never on message text or HTTP status alone.
const (
	// CodeBadRequest marks client-side misuse: malformed image, unknown
	// bank, invalid levels/tol/output (HTTP 400, serve *UsageError).
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed marks a wrong HTTP method (HTTP 405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverload marks a full admission queue (HTTP 503 + Retry-After,
	// serve *OverloadError).
	CodeOverload = "overload"
	// CodeDraining marks a server or gateway refusing work because
	// shutdown has begun (HTTP 503, serve ErrStopped / gateway
	// ErrDraining).
	CodeDraining = "draining"
	// CodeDeadline marks an expired request deadline (HTTP 504).
	CodeDeadline = "deadline_exceeded"
	// CodeCanceled marks a canceled request context (HTTP 503).
	CodeCanceled = "canceled"
	// CodeBudget marks a gateway retry loop cut short by the deadline
	// budget (HTTP 504, gateway *BudgetError).
	CodeBudget = "budget_exhausted"
	// CodeNoBackends marks a gateway with no routable backend (HTTP 503
	// + Retry-After, gateway *NoBackendsError).
	CodeNoBackends = "no_backends"
	// CodeInternal marks an unclassified server-side failure (HTTP 500).
	CodeInternal = "internal"
	// CodeBadGateway marks an unclassified gateway routing failure
	// (HTTP 502).
	CodeBadGateway = "bad_gateway"
)

// Error is the machine-readable error envelope every HTTP surface
// returns: a stable code for programs, a message for humans. It
// implements error so the layers can thread it through typed-error
// plumbing.
type Error struct {
	// V is the envelope version (Version).
	V int `json:"v"`
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
	// RetryAfterSec mirrors the Retry-After header for well-behaved
	// clients (0 = absent).
	RetryAfterSec int `json:"retry_after_sec,omitempty"`

	// Status is the HTTP status the envelope travels with. It is not
	// serialized: the transport already carries it.
	Status int `json:"-"`
}

// Error implements error.
func (e *Error) Error() string { return e.Message }

// NewError builds an envelope.
func NewError(status int, code, format string, args ...any) *Error {
	return &Error{V: Version, Code: code, Message: fmt.Sprintf(format, args...), Status: status}
}

// badRequest is the 400 shorthand.
func badRequest(format string, args ...any) *Error {
	return NewError(http.StatusBadRequest, CodeBadRequest, format, args...)
}

// WriteError renders the envelope onto w: JSON body, matching status,
// and a Retry-After header when the envelope asks for one.
func WriteError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	if e.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSec))
	}
	status := e.Status
	if status == 0 {
		status = http.StatusInternalServerError
	}
	w.WriteHeader(status)
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	data = append(data, '\n')
	w.Write(data)
}

// DecodeError parses an error envelope from a response body, attaching
// the transport status. A body that is not an envelope (a legacy plain
// text error, a proxy page) yields a best-effort envelope wrapping the
// raw text so clients always get a typed error.
func DecodeError(status int, body []byte) *Error {
	var e Error
	if err := json.Unmarshal(body, &e); err == nil && e.Code != "" {
		e.Status = status
		return &e
	}
	return &Error{
		V:       Version,
		Code:    CodeInternal,
		Message: strings.TrimSpace(string(body)),
		Status:  status,
	}
}

// DecomposeRequest is a fully parsed decompose request, independent of
// which wire form carried it.
type DecomposeRequest struct {
	// Bank is the resolved filter bank; nil selects the server default.
	Bank *filter.Bank
	// BankName is the requested bank name ("" = server default).
	BankName string
	// Levels is the decomposition depth (0 = server default).
	Levels int
	// Tol is the lifting-tier drift tolerance (0 = bit-identical
	// convolution tier). Range validation beyond syntax happens in the
	// service, which owns the typed *UsageError.
	Tol float64
	// Output is the response form, always one of the Output* constants.
	Output string
	// Image is the decoded raster.
	Image *image.Image
}

// decomposeWire is the v1 JSON request document. image_pgm carries the
// binary PGM bytes, base64-encoded by encoding/json's []byte rule.
type decomposeWire struct {
	V        int     `json:"v"`
	Bank     string  `json:"bank,omitempty"`
	Levels   int     `json:"levels,omitempty"`
	Tol      float64 `json:"tol,omitempty"`
	Output   string  `json:"output,omitempty"`
	ImagePGM []byte  `json:"image_pgm"`
}

// EncodeDecomposeJSON renders the v1 JSON request body for an image
// already encoded as PGM bytes. The typed client uses it; the golden
// wire-compat test pins its output byte for byte.
func EncodeDecomposeJSON(bankName string, levels int, tol float64, output string, imagePGM []byte) ([]byte, error) {
	return json.Marshal(decomposeWire{
		V:        Version,
		Bank:     bankName,
		Levels:   levels,
		Tol:      tol,
		Output:   output,
		ImagePGM: imagePGM,
	})
}

// decomposeParams are the query parameters of the legacy form; their
// presence alongside the JSON body form is a conflict.
var decomposeParams = []string{"filter", "bank", "levels", "tol", "output"}

// MediaType strips any parameters (charset and the like) from a
// Content-Type header value.
func MediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(strings.ToLower(ct))
}

// ParseDecompose parses a /v1/decompose HTTP request in any of the
// three wire forms, bounding the body read at maxBody bytes. It is the
// serve layer's parser; the gateway's ParseRouteInfo runs the same
// parameter steps (decomposeFromQuery, decomposeFromJSON) and the same
// image decoder, so both accept and reject the same parameters. Every
// validation failure is a typed *Error envelope ready for WriteError.
func ParseDecompose(w http.ResponseWriter, r *http.Request, maxBody int64) (*DecomposeRequest, *Error) {
	if r.Method != http.MethodPost {
		return nil, NewError(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"POST a binary PGM body (or the v1 JSON form)")
	}
	body := http.MaxBytesReader(w, r.Body, maxBody)
	q := r.URL.Query()
	form := MediaType(r.Header.Get("Content-Type"))
	if form == ContentTypeJSON {
		data, err := io.ReadAll(body)
		if err != nil {
			return nil, badRequest("reading body: %v", err)
		}
		req, pgm, perr := decomposeFromJSON(q, data)
		if perr != nil {
			return nil, perr
		}
		if req.Image, perr = decodeImage(ContentTypePGM, bytes.NewReader(pgm)); perr != nil {
			return nil, perr
		}
		return req, nil
	}
	// The streamed forms decode the image before the query is checked,
	// so a refused request has still read its body. In the legacy form
	// the body is the PGM, whatever the Content-Type (curl's
	// --data-binary default included).
	im, perr := decodeImage(form, boundedBody(body, r.ContentLength, maxBody))
	if perr != nil {
		return nil, perr
	}
	req, perr := decomposeFromQuery(q)
	if perr != nil {
		return nil, perr
	}
	req.Image = im
	return req, nil
}

// decodeImage is the one image decoder of both parsers: the raster
// codec for ContentTypeRaster, the binary PGM reader for any other form.
func decodeImage(form string, r io.Reader) (*image.Image, *Error) {
	decode := image.ReadPGM
	if form == ContentTypeRaster {
		decode = DecodeRaster
	}
	im, err := decode(r)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return im, nil
}

// lenReader is an io.LimitedReader that reports its remaining bytes
// through Len, the method the raster codec and the PGM reader size a
// declared payload against before allocating for it.
type lenReader struct{ io.LimitedReader }

func (l *lenReader) Len() int { return int(l.N) }

// boundedBody caps body at the bytes that can arrive: the declared
// Content-Length when the client sent one, and maxBody in any case.
func boundedBody(body io.Reader, contentLength, maxBody int64) io.Reader {
	n := maxBody
	if contentLength >= 0 && contentLength < n {
		n = contentLength
	}
	return &lenReader{io.LimitedReader{R: body, N: n}}
}

// decomposeFromQuery parses the legacy query parameters. It decodes no
// image.
func decomposeFromQuery(q url.Values) (*DecomposeRequest, *Error) {
	req := &DecomposeRequest{}
	name := q.Get("filter")
	if b := q.Get("bank"); b != "" {
		if name != "" && b != name {
			return nil, badRequest("conflicting filter=%q and bank=%q", name, b)
		}
		name = b
	}
	if perr := req.setBank(name); perr != nil {
		return nil, perr
	}
	if lv := q.Get("levels"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n < 1 {
			return nil, badRequest("bad levels %q", lv)
		}
		req.Levels = n
	}
	if tv := q.Get("tol"); tv != "" {
		eps, err := strconv.ParseFloat(tv, 64)
		if err != nil {
			return nil, badRequest("bad tol %q", tv)
		}
		req.Tol = eps
	}
	if perr := req.setOutput(q.Get("output")); perr != nil {
		return nil, perr
	}
	return req, nil
}

// decomposeFromJSON parses the v1 JSON wire document: query conflict,
// version, bank, levels, tol and output. It returns the image_pgm bytes
// undecoded.
func decomposeFromJSON(q url.Values, data []byte) (*DecomposeRequest, []byte, *Error) {
	for _, p := range decomposeParams {
		if q.Get(p) != "" {
			return nil, nil, badRequest("query parameter %q conflicts with the JSON body form", p)
		}
	}
	var wire decomposeWire
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, nil, badRequest("bad JSON request body: %v", err)
	}
	if wire.V != Version {
		return nil, nil, badRequest("unsupported protocol version %d (this server speaks v%d)", wire.V, Version)
	}
	if len(wire.ImagePGM) == 0 {
		return nil, nil, badRequest("missing image_pgm")
	}
	if wire.Levels < 0 {
		return nil, nil, badRequest("bad levels %d", wire.Levels)
	}
	req := &DecomposeRequest{Levels: wire.Levels, Tol: wire.Tol}
	if perr := req.setBank(wire.Bank); perr != nil {
		return nil, nil, perr
	}
	if perr := req.setOutput(wire.Output); perr != nil {
		return nil, nil, perr
	}
	return req, wire.ImagePGM, nil
}

// setBank resolves a bank name ("" = server default) against the
// catalog; the unknown-bank diagnostic lists the full catalog (the
// filter.ByName error).
func (r *DecomposeRequest) setBank(name string) *Error {
	if name == "" {
		return nil
	}
	bank, err := filter.ByName(name)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Bank = bank
	r.BankName = name
	return nil
}

// setOutput validates and defaults the output form.
func (r *DecomposeRequest) setOutput(output string) *Error {
	if output == "" {
		output = OutputMosaic
	}
	switch output {
	case OutputMosaic, OutputRoundtrip, OutputPyramid:
		r.Output = output
		return nil
	default:
		return badRequest("bad output %q (mosaic, roundtrip, or pyramid)", output)
	}
}

// RouteInfo is the gateway's view of a decompose request: everything
// shape-aware routing, the content-addressed cache, and the tiling
// coordinator need, extracted without decoding pixels. A request whose
// parameters serve would reject has OK false: it loses routing affinity
// and caching and is forwarded verbatim, so the backend produces the
// authoritative diagnostic.
type RouteInfo struct {
	// Bank, Levels, Tol, Output are the canonical decompose parameters.
	Bank   string
	Levels int
	Tol    float64
	Output string
	// Rows, Cols are the image shape; valid only when ShapeOK.
	Rows, Cols int
	ShapeOK    bool
	// ImageData is the raw image payload (PGM or raster bytes) the
	// content-addressed cache hashes: identical images produce identical
	// ImageData regardless of which wire form carried them (the JSON
	// form's base64 layer is stripped).
	ImageData []byte
	// OK reports that serve would accept these parameters; the cache
	// and the tiling path engage only then. The image is not decoded,
	// so a malformed payload can still be OK.
	OK bool

	// req holds the parsed parameters (nil unless OK), form the wire
	// form of ImageData: what Decode needs.
	req  *DecomposeRequest
	form string
}

// ParseRouteInfo extracts RouteInfo from a buffered request body plus
// its query and Content-Type, through the parameter steps ParseDecompose
// runs. It never fails: requests serve would reject return OK=false.
func ParseRouteInfo(q url.Values, contentType string, body []byte) RouteInfo {
	var (
		req  *DecomposeRequest
		perr *Error
		info = RouteInfo{ImageData: body, form: ContentTypePGM}
	)
	switch MediaType(contentType) {
	case ContentTypeJSON:
		req, info.ImageData, perr = decomposeFromJSON(q, body)
	case ContentTypeRaster:
		info.form = ContentTypeRaster
		req, perr = decomposeFromQuery(q)
	default:
		req, perr = decomposeFromQuery(q)
	}
	if perr != nil {
		return RouteInfo{}
	}
	sniff := SniffPGMShape
	if info.form == ContentTypeRaster {
		sniff = SniffRasterShape
	}
	info.Rows, info.Cols, info.ShapeOK = sniff(info.ImageData)
	info.Bank, info.Levels, info.Tol, info.Output = req.BankName, req.Levels, req.Tol, req.Output
	info.req, info.OK = req, true
	return info
}

// Decode decodes ImageData with the decoder ParseDecompose uses for the
// same wire form, returning the request serve would parse from these
// bytes, or the *Error it would answer with.
func (info *RouteInfo) Decode() (*DecomposeRequest, *Error) {
	if !info.OK {
		return nil, badRequest("request parameters did not parse")
	}
	im, perr := decodeImage(info.form, bytes.NewReader(info.ImageData))
	if perr != nil {
		return nil, perr
	}
	req := *info.req
	req.Image = im
	return &req, nil
}

// SniffPGMShape learns a binary PGM (P5) image's shape from its header
// with the reader's own parser (image.ParsePGMHeader), decoding no
// pixel. A header the reader refuses reports ok = false; whoever
// decodes the pixels produces the real diagnostic.
func SniffPGMShape(body []byte) (rows, cols int, ok bool) {
	rows, cols, err := image.ParsePGMHeader(bytes.NewReader(body))
	if err != nil {
		return 0, 0, false
	}
	return rows, cols, true
}
