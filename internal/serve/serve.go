// Package serve is the embeddable decomposition service layer: the
// point where the fast steady-state kernels of internal/wavelet meet
// production traffic. It owns a bounded admission queue with
// deterministic overload rejection (*OverloadError, never a blocking
// wait), per-(rows, cols, bank, levels, tier) pools of reused
// wavelet.Decomposers that every request executes through, per-request
// deadlines via context.Context, graceful drain on shutdown, and a
// zero-dependency atomic metrics registry exposed through Snapshot and
// the net/http handler set (/v1/decompose, /healthz, /metrics).
//
// The paper's closing claim — a sustained rate of "30 images or more
// per second", enough for real-time EOSDIS-scale processing — is
// exactly the workload this layer schedules; cmd/waveserved wraps it in
// a standalone daemon and wbench's service workload measures it.
package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// Config parameterizes a Server. The zero value of every field selects
// a sensible default; invalid (negative) values are rejected by New
// with a wrapped *wavelet.UsageError.
type Config struct {
	// Bank is the default filter bank for requests that do not name
	// one. Nil selects Daubechies-8 (the paper's F8).
	Bank *filter.Bank
	// Levels is the default decomposition depth (0 = 3).
	Levels int
	// Extension is the border policy for every request (the service is
	// homogeneous in extension; default Periodic).
	Extension filter.Extension
	// QueueDepth bounds the admission queue (0 = 64). When the queue
	// is full, Do rejects immediately with *OverloadError.
	QueueDepth int
	// Workers is the number of executor goroutines (0 = GOMAXPROCS).
	Workers int
	// Clock injects a time source for tests; nil uses the wall clock.
	Clock func() time.Time
}

// Request is one decomposition job.
type Request struct {
	// Image is the raster to decompose. It must stay unmodified until
	// the request completes.
	Image *image.Image
	// Bank overrides the server's default bank when non-nil. Banks are
	// identified by Name for Decomposer pooling, so two banks sharing
	// a name must share coefficients (true for every filter.ByName
	// result).
	Bank *filter.Bank
	// Levels overrides the server's default depth when > 0.
	Levels int
	// Tolerance opts this request into the lifting fast tier: the
	// decomposition may drift from the bit-identical default by at most
	// this relative error. 0 (the zero value) keeps the convolution
	// tier; negative or non-finite values are rejected with a typed
	// *wavelet.UsageError. The tier engages only when the bank and the
	// server's extension admit it — otherwise the request silently runs
	// on the convolution tier, which always satisfies any tolerance.
	Tolerance float64
}

// Result is a completed decomposition. Close returns the pooled
// Decomposer backing Pyramid to the server, after which Pyramid must
// not be read; call Detach first to keep a private copy.
type Result struct {
	// Pyramid is the decomposition. It references the pooled
	// Decomposer's reused buffers and is invalidated by Close.
	Pyramid *wavelet.Pyramid

	release  func()
	released atomic.Bool
}

// Close releases the pooled resources behind the result. Idempotent.
func (r *Result) Close() {
	if r.release != nil && r.released.CompareAndSwap(false, true) {
		r.release()
	}
}

// Detach deep-copies the pyramid, closes the result, and returns the
// copy, which the caller owns outright.
func (r *Result) Detach() *wavelet.Pyramid {
	p := r.Pyramid.Clone()
	r.Close()
	return p
}

// poolKey identifies a Decomposer pool: one pool per request shape ×
// bank × depth × tier, so arenas and output pyramids are always
// right-sized for the traffic class they serve and lifting-tier
// Decomposers never leak into bit-identical traffic. The tier, not the
// tolerance, is the key: every tolerance that resolves to the same tier
// builds the same Decomposer, so they share one pool.
type poolKey struct {
	rows, cols int
	bank       string
	levels     int
	lifting    bool
}

// job is a queued request plus its delivery plumbing.
type job struct {
	im     *image.Image
	bank   *filter.Bank
	levels int
	tol    float64
	key    poolKey
	ctx    context.Context
	start  time.Time
	done   chan jobResponse
	// handedOff arbitrates delivery between the executor and a Do that
	// gave up on its context: whoever wins the CAS owns the response.
	handedOff atomic.Bool
}

type jobResponse struct {
	res *Result
	err error
}

// Server is the decomposition service. Create with New; it is safe for
// concurrent use.
type Server struct {
	cfg     Config
	now     func() time.Time
	queue   chan *job
	mu      sync.RWMutex // guards stopped vs. queue close
	stopped bool
	wg      sync.WaitGroup
	metrics *Metrics

	poolMu sync.Mutex
	pools  map[poolKey]*sync.Pool
	// created counts Decomposers ever constructed across the pools: a
	// leak witness for tests (a drained server that keeps creating
	// fresh Decomposers under bounded concurrency is losing them).
	created atomic.Int64

	// execHook, when set (tests only), runs at the start of each
	// executor iteration, before execution.
	execHook func()
}

// New validates cfg and starts the executor goroutines.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth < 0 {
		return nil, badConfig("QueueDepth = %d, want >= 0", cfg.QueueDepth)
	}
	if cfg.Workers < 0 {
		return nil, badConfig("Workers = %d, want >= 0", cfg.Workers)
	}
	if cfg.Levels < 0 {
		return nil, badConfig("Levels = %d, want >= 0", cfg.Levels)
	}
	switch cfg.Extension {
	case filter.Periodic, filter.Symmetric, filter.Zero:
	default:
		return nil, badConfig("unknown Extension %v", cfg.Extension)
	}
	if cfg.Bank == nil {
		cfg.Bank = filter.Daubechies8()
	}
	if cfg.Levels == 0 {
		cfg.Levels = 3
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:     cfg,
		now:     cfg.Clock,
		queue:   make(chan *job, cfg.QueueDepth),
		metrics: newMetrics(),
		pools:   map[poolKey]*sync.Pool{},
	}
	if s.now == nil {
		s.now = time.Now
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

func badConfig(format string, args ...any) error {
	return fmt.Errorf("serve: invalid config: %w",
		&wavelet.UsageError{Op: "serve.New", Detail: fmt.Sprintf(format, args...)})
}

func badRequest(format string, args ...any) error {
	return fmt.Errorf("serve: invalid request: %w",
		&wavelet.UsageError{Op: "serve.Do", Detail: fmt.Sprintf(format, args...)})
}

// Metrics returns the server's registry (live; use Snapshot for a
// consistent copy).
func (s *Server) Metrics() *Metrics { return s.metrics }

// QueueLen returns the current admission-queue depth.
func (s *Server) QueueLen() int { return len(s.queue) }

// CreatedDecomposers returns how many Decomposers the pools have ever
// constructed — a leak witness: under bounded concurrency the count must
// stay bounded by the worker count per traffic class.
func (s *Server) CreatedDecomposers() int64 { return s.created.Load() }

// Do submits one request and waits for its result or the context. The
// admission decision is immediate: a full queue returns *OverloadError
// without blocking, so Do never waits in line past a deadline it cannot
// meet. A request whose context ends while queued is reported with the
// context's error; its slot is reclaimed without executing. The caller
// must Close (or Detach) the returned Result.
func (s *Server) Do(ctx context.Context, req Request) (*Result, error) {
	if req.Image == nil {
		return nil, badRequest("nil image")
	}
	bank := req.Bank
	if bank == nil {
		bank = s.cfg.Bank
	}
	levels := req.Levels
	if levels == 0 {
		levels = s.cfg.Levels
	}
	if levels < 0 {
		return nil, badRequest("Levels = %d, want >= 1", levels)
	}
	if err := wavelet.CheckDecomposable(req.Image.Rows, req.Image.Cols, levels); err != nil {
		return nil, badRequest("%dx%d image not decomposable to %d levels",
			req.Image.Rows, req.Image.Cols, levels)
	}
	if math.IsNaN(req.Tolerance) || math.IsInf(req.Tolerance, 0) || req.Tolerance < 0 {
		return nil, badRequest("Tolerance = %v, want a finite value >= 0", req.Tolerance)
	}
	j := &job{
		im:     req.Image,
		bank:   bank,
		levels: levels,
		tol:    req.Tolerance,
		key: poolKey{rows: req.Image.Rows, cols: req.Image.Cols, bank: bank.Name, levels: levels,
			lifting: wavelet.LiftingFor(bank, s.cfg.Extension, req.Tolerance) != nil},
		ctx:   ctx,
		start: s.now(),
		done:  make(chan jobResponse, 1),
	}

	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		return nil, ErrStopped
	}
	var admitted bool
	select {
	case s.queue <- j:
		admitted = true
	default:
	}
	s.mu.RUnlock()
	if !admitted {
		s.metrics.Rejected.Add(1)
		return nil, &OverloadError{Capacity: cap(s.queue)}
	}
	s.metrics.Accepted.Add(1)
	s.metrics.QueueDepth.Observe(float64(len(s.queue)))

	select {
	case r := <-j.done:
		return r.res, r.err
	case <-ctx.Done():
		if j.handedOff.CompareAndSwap(false, true) {
			return nil, ctx.Err()
		}
		// The executor won the race and a response is in flight.
		r := <-j.done
		return r.res, r.err
	}
}

// Shutdown stops admission and drains: in-flight and already-queued
// requests complete, then the executors exit. It returns nil once every
// executor has stopped, or the context's error if draining outlasts
// it (executors keep draining regardless). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// executor is one worker goroutine: it pops a job and executes it,
// unless the job's context already ended.
func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		if s.execHook != nil {
			s.execHook()
		}
		if j.ctx.Err() != nil {
			s.expire(j)
			continue
		}
		s.executeOne(j)
	}
}

// expire reports a request whose context ended before execution.
func (s *Server) expire(j *job) {
	s.metrics.Expired.Add(1)
	s.deliver(j, nil, j.ctx.Err())
}

// executeOne runs a single request through its shape's Decomposer pool.
func (s *Server) executeOne(j *job) {
	dec := s.getDecomposer(j)
	p, err := s.decompose(func() (*wavelet.Pyramid, error) { return dec.Decompose(j.im) })
	if err != nil {
		s.putDecomposer(j.key, dec)
		s.metrics.Errors.Add(1)
		s.deliver(j, nil, err)
		return
	}
	key, d := j.key, dec
	res := &Result{Pyramid: p, release: func() { s.putDecomposer(key, d) }}
	s.complete(j, res)
}

// decompose shields the serve boundary: a *wavelet.UsageError panic
// from a contract violation (or any other panic) becomes an error
// response, never a crashed executor.
func (s *Server) decompose(fn func() (*wavelet.Pyramid, error)) (p *wavelet.Pyramid, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ue, ok := r.(*wavelet.UsageError); ok {
			err = fmt.Errorf("serve: decomposition rejected: %w", ue)
			return
		}
		err = fmt.Errorf("serve: decomposition panicked: %v", r)
	}()
	return fn()
}

// complete delivers a successful result, recording latency. If the
// requester already abandoned the job, pooled resources are reclaimed.
func (s *Server) complete(j *job, res *Result) {
	s.metrics.Completed.Add(1)
	s.metrics.Latency.Observe(s.now().Sub(j.start).Seconds())
	if !s.deliver(j, res, nil) {
		res.Close()
	}
}

// deliver hands the response to the waiting Do unless the requester's
// context won the race; reports whether the response was taken.
func (s *Server) deliver(j *job, res *Result, err error) bool {
	if !j.handedOff.CompareAndSwap(false, true) {
		return false
	}
	j.done <- jobResponse{res: res, err: err}
	return true
}

// getDecomposer checks a Decomposer out of the job's pool, creating the
// pool (and, via sync.Pool, the Decomposer) on first use. The pool
// builds every Decomposer at the tolerance of the job that created it,
// which resolves to the pool's tier. Checked-out Decomposers are
// exclusively owned until putDecomposer.
func (s *Server) getDecomposer(j *job) *wavelet.Decomposer {
	s.poolMu.Lock()
	p, ok := s.pools[j.key]
	if !ok {
		bank, ext, levels, tol := j.bank, s.cfg.Extension, j.levels, j.tol
		p = &sync.Pool{New: func() any {
			s.created.Add(1)
			return wavelet.NewDecomposerTol(bank, ext, levels, tol)
		}}
		s.pools[j.key] = p
	}
	s.poolMu.Unlock()
	return p.Get().(*wavelet.Decomposer)
}

func (s *Server) putDecomposer(key poolKey, d *wavelet.Decomposer) {
	s.poolMu.Lock()
	p := s.pools[key]
	s.poolMu.Unlock()
	if p != nil {
		p.Put(d)
	}
}
