package wavelethpc

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"wavelethpc/internal/core"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/wavelet"
)

// Extension selects how signals are extended past image borders before
// filtering.
type Extension = filter.Extension

// The supported border policies. Periodic is the paper's choice and the
// default of every facade entry point; orthonormal banks reconstruct
// exactly under it.
const (
	Periodic  = filter.Periodic
	Symmetric = filter.Symmetric
	Zero      = filter.Zero
)

// Option configures a decomposition through DecomposeWith or
// DecomposeAllWith. Options validate eagerly: an out-of-range value
// surfaces as an error (wrapping *wavelet.UsageError) from the entry
// point, never as a panic.
type Option func(*decomposeConfig) error

// decomposeConfig is the resolved option set. The zero-option defaults
// reproduce the classical sequential transform: periodic extension, one
// level, no worker pool.
type decomposeConfig struct {
	levels   int
	workers  int
	parallel bool
	ext      Extension
	bank     *FilterBank
	tol      float64
}

// optionErr wraps an option-validation failure in the facade's typed
// error so callers can errors.As for *wavelet.UsageError.
func optionErr(op, format string, args ...any) error {
	return fmt.Errorf("wavelethpc: invalid option: %w",
		&wavelet.UsageError{Op: op, Detail: fmt.Sprintf(format, args...)})
}

// WithLevels sets the decomposition depth (default 1). Levels must be
// at least 1; the input dimensions must be divisible by 2^levels.
func WithLevels(levels int) Option {
	return func(c *decomposeConfig) error {
		if levels < 1 {
			return optionErr("WithLevels", "levels = %d, want >= 1", levels)
		}
		c.levels = levels
		return nil
	}
}

// WithWorkers routes the transform through the shared-memory parallel
// path with the given worker count (0 = GOMAXPROCS). Output is
// bit-identical to the sequential path at any worker count. Without
// this option the transform runs sequentially on the calling goroutine.
func WithWorkers(workers int) Option {
	return func(c *decomposeConfig) error {
		if workers < 0 {
			return optionErr("WithWorkers", "workers = %d, want >= 0 (0 = GOMAXPROCS)", workers)
		}
		c.workers = workers
		c.parallel = true
		return nil
	}
}

// WithBank selects the filter bank by registered name — any name
// accepted by FilterByName, e.g. "db4", "sym6", or "bior4.4" — as an
// alternative to passing a *FilterBank positionally (pass nil for the
// positional bank then). Unknown names fail with an error wrapping
// *filter.UnknownBankError, whose message lists the full catalog.
// Supplying both a positional bank and WithBank is an error: the call
// would be ambiguous about which bank it means.
func WithBank(name string) Option {
	return func(c *decomposeConfig) error {
		b, err := filter.ByName(name)
		if err != nil {
			return fmt.Errorf("wavelethpc: invalid option: WithBank: %w", err)
		}
		c.bank = b
		return nil
	}
}

// WithTolerance opts into the lifting fast tier by stating the relative
// drift from the bit-identical default the caller will accept. The
// default (and eps = 0) keeps the convolution tier, whose outputs are
// Float64bits-identical to the reference transform; a positive eps lets
// the dispatch select the bank's factored lifting scheme — roughly half
// the arithmetic, one fused sweep per level — whenever the scheme's
// advertised drift bound Eps is at most eps and the extension is
// Periodic. Combinations the lifting tier cannot serve (eps below the
// bank's Eps, non-periodic extension, a bank with no stable
// factorization, e.g. sym7) silently stay on the convolution tier,
// which satisfies every tolerance exactly. Negative, NaN, or infinite
// eps values are rejected.
func WithTolerance(eps float64) Option {
	return func(c *decomposeConfig) error {
		if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
			return optionErr("WithTolerance", "eps = %v, want a finite value >= 0", eps)
		}
		c.tol = eps
		return nil
	}
}

// WithExtension sets the border policy (default Periodic).
func WithExtension(ext Extension) Option {
	return func(c *decomposeConfig) error {
		switch ext {
		case Periodic, Symmetric, Zero:
			c.ext = ext
			return nil
		default:
			return optionErr("WithExtension", "unknown extension %v", ext)
		}
	}
}

// resolveOptions validates the common arguments and folds the options.
// The bank may come positionally or from WithBank — exactly one of the
// two must supply it.
func resolveOptions(bank *FilterBank, opts []Option) (decomposeConfig, error) {
	cfg := decomposeConfig{levels: 1, workers: 1, ext: Periodic}
	for _, opt := range opts {
		if opt == nil {
			return cfg, optionErr("DecomposeWith", "nil Option")
		}
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	switch {
	case bank != nil && cfg.bank != nil:
		return cfg, optionErr("DecomposeWith", "both a positional bank (%s) and WithBank (%s) given", bank.Name, cfg.bank.Name)
	case bank != nil:
		cfg.bank = bank
	case cfg.bank == nil:
		return cfg, optionErr("DecomposeWith", "nil filter bank (pass a bank or use WithBank)")
	}
	return cfg, nil
}

// DecomposeWith is the facade's single decomposition entry point: a
// multi-resolution Mallat transform of im by bank, configured by
// functional options.
//
//	pyr, err := wavelethpc.DecomposeWith(im, wavelethpc.Daubechies8(),
//	        wavelethpc.WithLevels(3), wavelethpc.WithWorkers(0))
//
// With no options it performs a sequential one-level periodic
// decomposition. Results are bit-identical across every option
// combination that selects the same mathematical transform (worker
// counts included), and identical to the deprecated Decompose,
// ParallelDecompose, and DecomposeBatch wrappers that delegate here.
// Invalid arguments and options return errors wrapping
// *wavelet.UsageError; no panic crosses this boundary.
func DecomposeWith(im *Image, bank *FilterBank, opts ...Option) (*Pyramid, error) {
	return DecomposeWithContext(context.Background(), im, bank, opts...)
}

// DecomposeWithContext is DecomposeWith under a context: a context
// already done on entry fails immediately with its error, before any
// pixel is touched. A transform in flight is not interrupted — the
// single-image kernels run to completion — so cancellation granularity
// is the whole call; DecomposeAllWithContext observes cancellation
// between batch items as well. Results are Float64bits-identical to
// DecomposeWith for every option combination.
func DecomposeWithContext(ctx context.Context, im *Image, bank *FilterBank, opts ...Option) (*Pyramid, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if im == nil {
		return nil, optionErr("DecomposeWith", "nil image")
	}
	cfg, err := resolveOptions(bank, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("wavelethpc: %w", err)
	}
	return guardDecompose(func() (*Pyramid, error) {
		if cfg.parallel {
			return core.ParallelDecomposeTol(im, cfg.bank, cfg.ext, cfg.levels, cfg.workers, cfg.tol)
		}
		return wavelet.DecomposeTol(im, cfg.bank, cfg.ext, cfg.levels, cfg.tol)
	})
}

// DecomposeAllWith decomposes a batch of images through a worker pool,
// preserving order; each output is bit-identical to DecomposeWith on
// the corresponding input. Unlike DecomposeWith, the default worker
// count is GOMAXPROCS (a batch is inherently a throughput workload);
// WithWorkers overrides it. All images must be decomposable to the
// configured depth — the first offending image fails the whole batch.
func DecomposeAllWith(images []*Image, bank *FilterBank, opts ...Option) ([]*Pyramid, error) {
	return DecomposeAllWithContext(context.Background(), images, bank, opts...)
}

// DecomposeAllWithContext is DecomposeAllWith under a context: the
// batch pipeline checks the context between items, so a long batch
// stops early on cancellation or deadline (the in-flight images finish;
// queued ones never start) and the whole call fails with the context's
// error. Results are Float64bits-identical to DecomposeAllWith.
func DecomposeAllWithContext(ctx context.Context, images []*Image, bank *FilterBank, opts ...Option) ([]*Pyramid, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := resolveOptions(bank, opts)
	if err != nil {
		return nil, err
	}
	if !cfg.parallel {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	for i, im := range images {
		if im == nil {
			return nil, optionErr("DecomposeAllWith", "nil image at index %d", i)
		}
	}
	var pyrs []*Pyramid
	_, err = guardDecompose(func() (*Pyramid, error) {
		res, err := core.DecomposeBatch(ctx, images, cfg.bank, cfg.ext, cfg.levels, cfg.workers, cfg.tol)
		if err != nil {
			return nil, err
		}
		pyrs = res.Pyramids
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return pyrs, nil
}

// guardDecompose is the facade's panic shield: contract-violation
// panics from the internal layers (*wavelet.UsageError) surface as
// ordinary errors; anything else propagates unchanged.
func guardDecompose(fn func() (*Pyramid, error)) (p *Pyramid, err error) {
	defer func() {
		if r := recover(); r != nil {
			ue, ok := r.(*wavelet.UsageError)
			if !ok {
				panic(r)
			}
			p, err = nil, fmt.Errorf("wavelethpc: %w", ue)
		}
	}()
	return fn()
}
