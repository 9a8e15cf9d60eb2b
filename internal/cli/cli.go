// Package cli holds the flag plumbing shared by the cmd/ tools:
// list-flag parsing with validation, and the common experiment flags
// that translate into a harness.Options.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/gateway"
	"wavelethpc/internal/harness"
	"wavelethpc/internal/serve"
)

// ParseInts parses a comma-separated list of positive integers such as
// a processor-count sweep ("1,2,4,8,16,32"). Non-positive and
// duplicate values are rejected up front — a "-procs 0,4" or
// "-procs 4,4" sweep would otherwise fail deep inside the simulator
// (or silently run a point twice).
func ParseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cli: empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	seen := make(map[int]bool, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("cli: bad value %q: %w", part, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("cli: value %d must be positive", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("cli: duplicate value %d", v)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

// PowersOfTwo reports whether every value is a power of two (the PIC
// drivers require it).
func PowersOfTwo(vals []int) bool {
	for _, v := range vals {
		if v < 1 || v&(v-1) != 0 {
			return false
		}
	}
	return true
}

// Flags bundles the experiment flags shared by the cmd/ tools. Each
// command registers the subset it needs and converts the parsed values
// into a harness.Options with Options().
type Flags struct {
	Machine   string
	Procs     string
	Sizes     string
	Grid      int
	Size      int
	Seed      int64
	Steps     int
	Workers   int
	Trace     string
	CSVDir    string
	Timeout   time.Duration
	sizesName string
}

// AddMachine registers -machine.
func (f *Flags) AddMachine(fs *flag.FlagSet, def string) {
	fs.StringVar(&f.Machine, "machine", def, "machine preset: paragon, t3d, or dec5000")
}

// AddProcs registers -procs.
func (f *Flags) AddProcs(fs *flag.FlagSet, def string) {
	fs.StringVar(&f.Procs, "procs", def, "comma-separated processor counts")
}

// AddSizes registers a problem-size sweep flag under the given name
// (e.g. "sizes" for body counts, "particles" for particle counts).
func (f *Flags) AddSizes(fs *flag.FlagSet, name, def, usage string) {
	f.sizesName = name
	fs.StringVar(&f.Sizes, name, def, usage)
}

// AddImage registers -size and -seed for the wavelet experiments.
func (f *Flags) AddImage(fs *flag.FlagSet) {
	fs.IntVar(&f.Size, "size", 512, "square image size")
	fs.Int64Var(&f.Seed, "seed", 42, "synthetic scene seed")
}

// AddSteps registers -steps and -seed for the application experiments.
func (f *Flags) AddSteps(fs *flag.FlagSet) {
	fs.IntVar(&f.Steps, "steps", 1, "simulated time steps per run")
	fs.Int64Var(&f.Seed, "seed", 1, "initial-condition seed")
}

// AddWorkers registers -workers, the sweep-concurrency bound.
func (f *Flags) AddWorkers(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", 0, "concurrent sweep points (0 = GOMAXPROCS)")
}

// AddTrace registers -trace, the nx event-trace output path.
func (f *Flags) AddTrace(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write an nx event trace of one representative run "+
		"(Chrome trace_event JSON; a .jsonl suffix selects JSONL)")
}

// AddCSV registers -csv, the per-artifact CSV export directory.
func (f *Flags) AddCSV(fs *flag.FlagSet) {
	fs.StringVar(&f.CSVDir, "csv", "", "also write one CSV per curve/table into this directory")
}

// AddTimeout registers -timeout, the wall-clock run bound.
func (f *Flags) AddTimeout(fs *flag.FlagSet) {
	fs.DurationVar(&f.Timeout, "timeout", 0, "abort the run after this wall-clock duration, e.g. 30s (0 = no limit)")
}

// Context returns the run's base context, honoring -timeout when set.
// The caller must invoke the returned cancel function.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	if f.Timeout > 0 {
		return context.WithTimeout(context.Background(), f.Timeout)
	}
	return context.WithCancel(context.Background())
}

// AddGrid registers -grid for the PIC experiments.
func (f *Flags) AddGrid(fs *flag.FlagSet) {
	fs.IntVar(&f.Grid, "grid", 32, "grid edge (32 or 64 are calibrated)")
}

// ListExperiments prints the registered experiment catalog, one
// "name - description" line each.
func ListExperiments(w io.Writer) {
	for _, name := range harness.Names() {
		e, err := harness.Lookup(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%-20s %s\n", name, e.Description())
	}
}

// ExportCSV writes every artifact of the report as <name>.csv into dir,
// logging one "wrote <path>" line per file to w. A nil report or empty
// dir is a no-op.
func ExportCSV(rep *harness.Report, dir string, w io.Writer) error {
	if rep == nil || dir == "" {
		return nil
	}
	for _, a := range rep.Artifacts() {
		path := filepath.Join(dir, a.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := a.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}

// ServeFlags bundles the flags of the decomposition service front end,
// cmd/waveserved: the listen address plus everything that maps onto a
// serve.Config.
type ServeFlags struct {
	Addr     string
	Filter   string
	Levels   int
	Queue    int
	Workers  int
	Deadline time.Duration
	Drain    time.Duration
}

// AddServe registers the service flags.
func (f *ServeFlags) AddServe(fs *flag.FlagSet) {
	fs.StringVar(&f.Addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&f.Filter, "filter", "db8", "default filter bank: haar, db4, db6, db8")
	fs.IntVar(&f.Levels, "levels", 3, "default decomposition levels")
	fs.IntVar(&f.Queue, "queue", 64, "admission queue depth (full queue rejects with 503)")
	fs.IntVar(&f.Workers, "workers", 0, "executor goroutines (0 = GOMAXPROCS)")
	fs.DurationVar(&f.Deadline, "deadline", 0, "server-imposed per-request deadline, e.g. 500ms (0 = none)")
	fs.DurationVar(&f.Drain, "drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM; "+
		"the process exits nonzero if in-flight work had to be abandoned")
}

// ServeConfig validates the parsed service flags into a serve.Config.
func (f *ServeFlags) ServeConfig() (serve.Config, error) {
	bank, err := filter.ByName(f.Filter)
	if err != nil {
		return serve.Config{}, fmt.Errorf("-filter: %w", err)
	}
	if f.Levels < 1 {
		return serve.Config{}, fmt.Errorf("-levels: %d, want >= 1", f.Levels)
	}
	if f.Deadline < 0 {
		return serve.Config{}, fmt.Errorf("-deadline: %v, want >= 0", f.Deadline)
	}
	if f.Drain < 0 {
		return serve.Config{}, fmt.Errorf("-drain: %v, want >= 0", f.Drain)
	}
	return serve.Config{
		Bank:       bank,
		Levels:     f.Levels,
		QueueDepth: f.Queue,
		Workers:    f.Workers,
	}, nil
}

// GatewayFlags bundles the flags of the shard-router front end,
// cmd/wavegate: the listen address, the backend list, and everything
// that maps onto a gateway.Config.
type GatewayFlags struct {
	Addr            string
	Backends        string
	Seed            uint64
	Retries         int
	Backoff         time.Duration
	MaxBackoff      time.Duration
	HedgeAfter      time.Duration
	BreakerFailures int
	BreakerCooldown time.Duration
	ProbeInterval   time.Duration
	Drain           time.Duration
	CacheBytes      int64
	TileRows        int
	TileStripes     int
}

// AddGateway registers the gateway flags.
func (f *GatewayFlags) AddGateway(fs *flag.FlagSet) {
	fs.StringVar(&f.Addr, "addr", "127.0.0.1:8090", "listen address")
	fs.StringVar(&f.Backends, "backends", "", "comma-separated backend base URLs, e.g. http://127.0.0.1:9001,http://127.0.0.1:9002")
	fs.Uint64Var(&f.Seed, "seed", 1, "seed for the retry-jitter stream and routing salt")
	fs.IntVar(&f.Retries, "retries", 3, "max retries beyond a request's first attempt")
	fs.DurationVar(&f.Backoff, "backoff", 5*time.Millisecond, "base exponential backoff before a retry (full jitter)")
	fs.DurationVar(&f.MaxBackoff, "max-backoff", 250*time.Millisecond, "backoff ceiling")
	fs.DurationVar(&f.HedgeAfter, "hedge-after", 0, "launch a hedged attempt on the next backend after this delay (0 = off)")
	fs.IntVar(&f.BreakerFailures, "breaker-failures", 5, "consecutive failures that open a backend's circuit breaker")
	fs.DurationVar(&f.BreakerCooldown, "breaker-cooldown", time.Second, "open-breaker cooldown before a half-open trial")
	fs.DurationVar(&f.ProbeInterval, "probe-interval", 500*time.Millisecond, "active /readyz probe period (negative disables)")
	fs.DurationVar(&f.Drain, "drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM; "+
		"the process exits nonzero if in-flight work had to be abandoned")
	fs.Int64Var(&f.CacheBytes, "cache-bytes", 0, "content-addressed result cache budget in bytes of cached payload (0 = off)")
	fs.IntVar(&f.TileRows, "tile-rows", 0, "split decompose requests with at least this many rows into "+
		"halo-overlapped row stripes fanned across the backends (0 = off)")
	fs.IntVar(&f.TileStripes, "tile-stripes", 0, "row stripes per tiled request (0 = one per backend)")
}

// GatewayConfig validates the parsed gateway flags into a
// gateway.Config.
func (f *GatewayFlags) GatewayConfig() (gateway.Config, error) {
	if strings.TrimSpace(f.Backends) == "" {
		return gateway.Config{}, fmt.Errorf("-backends: at least one backend URL required")
	}
	var backends []string
	for _, b := range strings.Split(f.Backends, ",") {
		b = strings.TrimSpace(b)
		if b != "" {
			backends = append(backends, b)
		}
	}
	if f.Retries < 0 {
		return gateway.Config{}, fmt.Errorf("-retries: %d, want >= 0", f.Retries)
	}
	if f.Drain < 0 {
		return gateway.Config{}, fmt.Errorf("-drain: %v, want >= 0", f.Drain)
	}
	return gateway.Config{
		Backends:        backends,
		Seed:            f.Seed,
		MaxRetries:      f.Retries,
		BaseBackoff:     f.Backoff,
		MaxBackoff:      f.MaxBackoff,
		HedgeAfter:      f.HedgeAfter,
		BreakerFailures: f.BreakerFailures,
		BreakerCooldown: f.BreakerCooldown,
		ProbeInterval:   f.ProbeInterval,
		CacheBytes:      f.CacheBytes,
		TileRows:        f.TileRows,
		TileStripes:     f.TileStripes,
	}, nil
}

// Options validates the parsed flags and builds the harness options.
func (f *Flags) Options() (harness.Options, error) {
	opt := harness.Options{
		Machine:   f.Machine,
		Grid:      f.Grid,
		Size:      f.Size,
		Seed:      f.Seed,
		Steps:     f.Steps,
		Workers:   f.Workers,
		TracePath: f.Trace,
		CSVDir:    f.CSVDir,
	}
	if f.Procs != "" {
		procs, err := ParseInts(f.Procs)
		if err != nil {
			return opt, fmt.Errorf("-procs: %w", err)
		}
		opt.Procs = procs
	}
	if f.Sizes != "" {
		sizes, err := ParseInts(f.Sizes)
		if err != nil {
			return opt, fmt.Errorf("-%s: %w", f.sizesName, err)
		}
		opt.Sizes = sizes
	}
	return opt, nil
}
