package experiments

import (
	"context"
	"fmt"

	"wavelethpc/internal/budget"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/harness"
	"wavelethpc/internal/image"
	"wavelethpc/internal/mesh"
	"wavelethpc/internal/nx"
	"wavelethpc/internal/wavelet"
)

// tile/scale is the deterministic scale model behind the gateway's
// distributed tile decomposition (internal/gateway/tile.go): rank 0
// plays the wavegate coordinator, ranks 1..P-1 play waveserved
// backends, and the nx simulator's 16-node mesh supplies the placement
// and link-contention physics the HTTP fleet hides. The program runs
// the production protocol on the same plan (wavelet.PlanStripes) in one
// round: the coordinator ships each backend one stripe with a halo deep
// enough for every level, every backend runs a real L-level transform
// on it and sends back one pack of the kept rows of every band, and the
// coordinator places them into the output pyramid. The pyramid is
// verified Float64bits-identical to the sequential transform on every
// sweep point, the same property the gateway's tile tests pin over
// HTTP. The halo is redundant computation the single-node transform
// never pays, which is why it is charged to the budget's redundancy
// and why more backends (thinner stripes, the same halo) buy less.
//
// Unlike the paper's SPMD ring (wavelet/scaling), this topology is
// hub-and-spoke: all stripes leave from and all band packs converge
// on rank 0's node, so the coordinator's serialized sends/receives and
// the contention on its mesh links are the backpressure that caps
// fleet scaling — the effect the curve makes visible as backends grow
// toward the 16-node machine.

// tileScale returns the registered experiment.
func tileScale() harness.Experiment {
	return &harness.Func{
		ExpName: "tile/scale",
		Desc:    "gateway tile fan-out on the 16-node mesh: hub backpressure vs backend count",
		RunFunc: runTileScale,
	}
}

// tileScaleProcs is the default rank sweep: 1 coordinator + {1,3,7,15}
// backends, topping out at the full 16-node machine.
var tileScaleProcs = []int{2, 4, 8, 16}

// message tags of the coordinator/backend protocol.
const (
	tagTileStripe = 30 // coordinator -> backend: stripe + halo rows
	tagTileBands  = 31 // backend -> coordinator: kept rows of every band
)

func runTileScale(ctx context.Context, opt harness.Options) (*harness.Report, error) {
	machine, err := mesh.MachineByName(machineOr(opt, "paragon"))
	if err != nil {
		return nil, err
	}
	bank, err := filter.ByName("db8")
	if err != nil {
		return nil, err
	}
	size := harness.IntOr(opt.Size, 256)
	seed := opt.Seed
	if seed == 0 {
		seed = 42
	}
	levels := 2
	im := image.Landsat(size, size, uint64(seed))
	want, err := wavelet.Decompose(im, bank, filter.Periodic, levels)
	if err != nil {
		return nil, err
	}
	procs := opt.ProcsOr(tileScaleProcs)

	rep := &harness.Report{Experiment: "tile/scale"}
	sec := harness.Section{
		Heading: fmt.Sprintf("Gateway tile fan-out, %s, %dx%d db8 L%d", machine.Name, size, size, levels),
	}
	for _, pl := range placementsFor(machine) {
		curve := &harness.Curve{
			Name:  fmt.Sprintf("%s_tilescale_%s", machine.Name, pl.Name()),
			Title: fmt.Sprintf("%s placement", pl.Name()),
			Labels: []harness.Label{
				{Key: "machine", Value: machine.Name},
				{Key: "placement", Value: pl.Name()},
			},
			Columns: []harness.Column{
				{Name: "B", CSV: "backends", Width: 4, Kind: harness.Int},
				{Name: "elapsed(s)", CSV: "elapsed_s", Unit: "s", Width: 12, Prec: 4},
				{Name: "speedup", CSV: "speedup", Width: 9, Prec: 2, Verb: 'f'},
				{Name: "hub(s)", CSV: "hub_s", Unit: "s", Width: 10, Prec: 4},
				{Name: "msgs", CSV: "msgs", Width: 7, Kind: harness.Int},
				{Name: "contended", CSV: "contended_msgs", Width: 10, Kind: harness.Int},
				{Name: "linkwait(s)", CSV: "link_wait_s", Unit: "s", Width: 12, Prec: 4},
			},
		}
		base := 0.0
		for _, p := range procs {
			if p < 2 {
				return nil, fmt.Errorf("experiments: tile/scale needs >= 2 ranks (coordinator + backends), got %d", p)
			}
			res, err := runTileFanout(ctx, im, want, machine, pl, p, bank, levels)
			if err != nil {
				return nil, err
			}
			if base == 0 {
				base = res.sim.Elapsed
			}
			curve.Points = append(curve.Points, harness.Point{
				Values: []float64{
					float64(p - 1),
					res.sim.Elapsed,
					base / res.sim.Elapsed,
					res.hubComm,
					float64(res.sim.Msgs),
					float64(res.sim.ContendedMsgs),
					res.sim.LinkWait,
				},
				Budget: &res.sim.Budget,
			})
		}
		sec.Curves = append(sec.Curves, curve)
	}
	sec.Text = "stitched pyramids verified Float64bits-identical to the sequential transform at every point\n"
	rep.Sections = append(rep.Sections, sec)
	return rep, nil
}

// tileFanoutResult is one simulated coordinator run.
type tileFanoutResult struct {
	sim *nx.Result
	// hubComm is the coordinator's total time inside communication calls
	// — the serialization the hub-and-spoke topology pays.
	hubComm float64
}

// runTileFanout simulates one full pyramid build over the fan-out
// protocol and verifies the placed result against want.
func runTileFanout(ctx context.Context, im *image.Image, want *wavelet.Pyramid, machine *mesh.Machine, pl mesh.Placement, p int, bank *filter.Bank, levels int) (*tileFanoutResult, error) {
	if err := wavelet.CheckDecomposable(im.Rows, im.Cols, levels); err != nil {
		return nil, err
	}
	cost := machine.Cost
	f := bank.DecLen()
	plan := wavelet.PlanStripes(im.Rows, levels, f, p-1)
	placed := wavelet.NewPyramid(im.Rows, im.Cols, bank, filter.Periodic, levels)

	prog := func(r *nx.Rank) {
		id := r.ID()
		if id != 0 {
			// --- Backend: one stripe, every level ----------------------
			if id <= len(plan) { // more backends than stripes leaves some idle
				s := plan[id-1]
				data, _ := r.RecvFloats(0, tagTileStripe)
				sub := imageFromFloats(s.Rows+s.Halo, im.Cols, data)
				sp, err := wavelet.Decompose(sub, bank, filter.Periodic, levels)
				if err != nil {
					panic(&wavelet.UsageError{Op: "tile/scale", Detail: err.Error()})
				}
				// Every MAC at the calibrated kernel cost, plus fixed
				// per-coefficient overhead (one coefficient per f MACs).
				macs := float64(wavelet.DecomposeMACs(sub.Rows, sub.Cols, f, levels))
				r.Compute(macs*(cost.MACTime+cost.CoefTime/float64(f)), budget.Useful)
				packed := packBands(s.Bands(sp, 0))
				r.Compute(float64(len(packed))*8*cost.MemByteTime, budget.UniqueRedundancy)
				r.SendFloats(0, tagTileBands, packed)
			}
			r.SetResult(0.0)
			return
		}

		// --- Coordinator: fan out, collect, place ----------------------
		t := r.Clock()
		for i, s := range plan {
			stripe := s.Extract(im)
			// Slicing stripes out of the image is parallelization
			// redundancy the single-node transform never pays.
			r.Compute(float64(len(stripe.Pix))*8*cost.MemByteTime, budget.UniqueRedundancy)
			r.SendFloats(i+1, tagTileStripe, stripe.Pix)
		}
		for i, s := range plan {
			packed, _ := r.RecvFloats(i+1, tagTileBands)
			unpackBands(s.Bands(placed, s.Start), packed)
		}
		r.SetResult(r.Clock() - t)
	}

	sim, err := nx.RunCtx(ctx, nx.Config{Machine: machine, Placement: pl, Procs: p}, prog)
	if err != nil {
		return nil, err
	}
	if err := verifyStitched(placed, want); err != nil {
		return nil, fmt.Errorf("experiments: tile/scale P=%d %s: %w", p, pl.Name(), err)
	}
	return &tileFanoutResult{sim: sim, hubComm: sim.Values[0].(float64)}, nil
}

// packBands flattens a stripe's kept band rows (Stripe.Bands) into one
// message.
func packBands(bands []*image.Image) []float64 {
	var packed []float64
	for _, b := range bands {
		for m := 0; m < b.Rows; m++ {
			packed = append(packed, b.Row(m)...)
		}
	}
	return packed
}

// unpackBands fills the destination band rows from a packBands message.
func unpackBands(bands []*image.Image, packed []float64) {
	for _, b := range bands {
		for m := 0; m < b.Rows; m++ {
			packed = packed[copy(b.Row(m), packed):]
		}
	}
}

// imageFromFloats wraps a flat row-major stripe as an image (copying).
func imageFromFloats(rows, cols int, flat []float64) *image.Image {
	if len(flat) != rows*cols {
		panic(&wavelet.UsageError{Op: "tile/scale", Detail: fmt.Sprintf("stripe %d floats != %dx%d", len(flat), rows, cols)})
	}
	out := image.New(rows, cols)
	copy(out.Pix, flat)
	return out
}

// verifyStitched checks the simulated fan-out reproduced the sequential
// transform bit for bit — the gateway tiling property, re-proved on the
// simulator every run.
func verifyStitched(got, want *wavelet.Pyramid) error {
	if got.Depth() != want.Depth() {
		return fmt.Errorf("stitched depth %d, want %d", got.Depth(), want.Depth())
	}
	if !image.EqualBits(got.Approx, want.Approx) {
		return fmt.Errorf("stitched approx band differs from the sequential transform")
	}
	for l := range want.Levels {
		if !image.EqualBits(got.Levels[l].LH, want.Levels[l].LH) ||
			!image.EqualBits(got.Levels[l].HL, want.Levels[l].HL) ||
			!image.EqualBits(got.Levels[l].HH, want.Levels[l].HH) {
			return fmt.Errorf("stitched detail level %d differs from the sequential transform", l)
		}
	}
	return nil
}
