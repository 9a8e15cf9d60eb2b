// Package kernel provides the fast-path kernels behind the
// shared-memory DWT: the fused single-sweep analysis and synthesis of
// one level, whose row and column sums run on one lane-parallel combine
// (AVX2 assembly on amd64), and pooled scratch that eliminates
// per-level allocations.
//
// The paper's argument — and this package's reason to exist — is that
// the Mallat transform's memory-access pattern, not its FLOP count,
// decides performance on real machines. The reference implementation in
// internal/wavelet column-filters by gathering one full stride-N column
// at a time, touching a new cache line per element. AnalyzeLevelRange
// instead runs the whole level in one sweep over output rows: it
// row-filters each source row it needs exactly once into a Ring of the
// last F filtered L/H rows (F the longer analysis channel), keeps the
// rows that border outputs reach by wrapping or reflecting below that
// window in slots of their own, and column-filters every output row
// from the ring, eight columns at a time with each coefficient in a
// vector lane. No full-size L/H intermediate is written or read back.
// The two-pass entry points, AnalyzeRowsRange, AnalyzeRow and
// AnalyzeColsRange, run the sweep's own stages one at a time over whole
// images: the row filter (window.filterRow) and the column combine
// (combineTerms over the source row segments under each output row's
// taps). They serve the Walsh–Hadamard cascade, the layer probes and
// the equivalence tests.
//
// Bit-identity contract: every kernel performs, for each output
// coefficient, exactly the same sequence of floating-point operations as
// the reference wavelet.AnalyzeStep — accumulation starts at zero and
// adds h[k]·x[·] in ascending k, with the same interior/border split
// (border taps resolved through filter.Extension.Index, out-of-range
// taps skipped). Blocking and unrolling only reorder work *across*
// output coefficients, never within one, so outputs are bit-identical to
// the reference path and the goldens of earlier PRs are preserved. The
// equivalence tests in internal/wavelet enforce this with
// math.Float64bits comparisons.
//
// The fused sweep keeps the contract because each ring row is exactly
// the row AnalyzeRowsRange would have written to the intermediate (the
// same row filter: under periodic extension tap views of the
// deinterleaved row, otherwise the Go row kernel), and
// each subband coefficient then starts at zero and adds h[k]·row[2i+k]
// over the ring rows in ascending k, with the reference interior/border
// split. Rows filtered twice — shared by
// two output-row ranges, or held both in the window and in a wrapped
// slot — are computed twice the same way.
//
// The fused synthesis sweep, SynthesizeLevelRange, is the same idea run
// backwards: one pass over output rows, each column-synthesized from the
// few source rows of the four subbands that cover it into a one-row L|H
// scratch, then merged straight into the output row, so the inverse
// needs no full-size intermediate either. It keeps the reference
// wavelet.SynthesizeStep order per output coefficient in both stages:
// start at zero, add the lo channel's terms h[k]·c[i] in ascending i
// (ascending k within one i; interior sources, which come first, then
// the border sources through ext.Index), then the hi channel's in the
// same order. Unlike the reference it does not skip zero coefficients,
// which cannot change a bit: the accumulator starts at +0 and never
// becomes -0, and adding ±0 to anything else is exact.
//
// The lifting tier (opt-in by tolerance, outside the contract above)
// runs the same single sweep per level, LiftLevelRange. It streams row
// pairs in virtual order, pair v being source rows 2p, 2p+1 with
// p = v mod rows/2, so the periodic wrap of the column steps becomes a
// straight stream. Each pair is row-lifted once into a ring; the column
// predict/update steps run as a flat stage schedule over ring rows, each
// step lagging the steps it reads by its width; each subband row is
// written once, scaled on the way out. It is bit-identical to the
// two-pass lifting kernels (LiftRowsRange, then LiftColsRange) for any
// split of the level: the ring rows are the rows the row pass writes,
// and every coefficient takes the column form the two-pass kernel gives
// its level position — dst + (t0·a + t1·b) inside, a +0-started
// accumulator where the column wraps, which matters for the sign of a
// zero — followed by the same scale.
//
// Inputs are assumed validated (even dimensions, matching shapes); the
// wavelet package checks before dispatching here.
package kernel

// PanelWidth is the column-panel width of LiftColsRange, the two-pass
// lifting column pass, in float64 samples: 64 samples = 512 bytes = 8
// cache lines per touched row, small enough that one panel stays
// resident in L1 through all the lifting steps, and the bound of the
// rows scaleRotateRows spills.
const PanelWidth = 64
