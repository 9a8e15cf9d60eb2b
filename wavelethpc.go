// Package wavelethpc is a reproduction of "Wavelet Decomposition on
// High-Performance Computing Systems" (El-Ghazawi & Le Moigne, ICPP 1996)
// and the companion studies of its enclosing CESDIS report: a Mallat
// multi-resolution 2-D wavelet library with real shared-memory
// parallelism, deterministic simulators of the Intel Paragon and MasPar
// MP-2 that regenerate the paper's scalability figures and comparative
// table, the Appendix B Barnes-Hut N-body and PIC overhead studies, and
// the Appendix C workload-characterization model.
//
// This package is the public facade; implementations live under
// internal/. The type aliases below let applications use the library
// without importing internal paths.
//
//	im := wavelethpc.Landsat(512, 512, 42)
//	pyr, err := wavelethpc.Decompose(im, wavelethpc.Daubechies8(), 3)
//	...
//	back := wavelethpc.Reconstruct(pyr)
package wavelethpc

import (
	"wavelethpc/internal/core"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/mesh"
	"wavelethpc/internal/simd"
	"wavelethpc/internal/wavelet"
)

// Image is a dense float64 grayscale raster.
type Image = image.Image

// FilterBank is a two-channel analysis/synthesis bank carrying explicit
// decomposition and reconstruction filter pairs (equal for orthonormal
// banks, distinct for the biorthogonal families).
type FilterBank = filter.Bank

// Pyramid is a multi-level 2-D wavelet decomposition.
type Pyramid = wavelet.Pyramid

// Subbands is one level's LL/LH/HL/HH quartet.
type Subbands = wavelet.Subbands

// NewImage allocates a zeroed rows×cols image.
func NewImage(rows, cols int) *Image { return image.New(rows, cols) }

// Landsat synthesizes a deterministic terrain-like scene standing in for
// the paper's 512×512 Landsat-TM band.
func Landsat(rows, cols int, seed uint64) *Image { return image.Landsat(rows, cols, seed) }

// LoadPGM reads a binary PGM image.
func LoadPGM(path string) (*Image, error) { return image.LoadPGM(path) }

// SavePGM writes a binary PGM image.
func SavePGM(path string, im *Image) error { return image.SavePGM(path, im) }

// PSNR is the peak signal-to-noise ratio of b against a in dB.
func PSNR(a, b *Image) float64 { return image.PSNR(a, b) }

// Haar returns the 2-tap bank (the paper's F2).
func Haar() *FilterBank { return filter.Haar() }

// Daubechies4 returns the 4-tap bank (F4).
func Daubechies4() *FilterBank { return filter.Daubechies4() }

// Daubechies6 returns the 6-tap Daubechies bank.
func Daubechies6() *FilterBank { return filter.Daubechies6() }

// Daubechies8 returns the 8-tap bank (F8).
func Daubechies8() *FilterBank { return filter.Daubechies8() }

// FilterByName resolves any registered bank name — the orthonormal
// "haar"/"db4"/"db6"/"db8" (aliases f2/f4/f6/f8), the symlets
// "sym2".."sym8", and the biorthogonal "bior2.2"/"bior3.1"/"bior4.4",
// their "rbio" reverses, and the JPEG-2000 legal "cdf5/3". Unknown
// names return a *filter.UnknownBankError listing the catalog.
func FilterByName(name string) (*FilterBank, error) { return filter.ByName(name) }

// Banks returns the names of every registered filter bank, sorted.
func Banks() []string { return filter.Names() }

// WHT1D computes the orthonormal Walsh–Hadamard transform of x in
// natural (Hadamard) ordering via a cascading-Haar wavelet-packet
// construction on the shared kernel layer. len(x) must be a power of
// two; the transform is its own inverse.
func WHT1D(x []float64) ([]float64, error) { return wavelet.WHT1D(x) }

// WHT2D computes the separable orthonormal 2-D Walsh–Hadamard
// transform of im in natural ordering. Both dimensions must be powers
// of two; the transform is its own inverse.
func WHT2D(im *Image) (*Image, error) { return wavelet.WHT2D(im) }

// Decompose runs the sequential Mallat multi-resolution decomposition
// with periodic extension.
//
// Deprecated: use DecomposeWith(im, bank, WithLevels(levels)). This
// wrapper delegates to it and stays byte-identical.
func Decompose(im *Image, bank *FilterBank, levels int) (*Pyramid, error) {
	return DecomposeWith(im, bank, WithLevels(levels))
}

// Reconstruct inverts Decompose.
func Reconstruct(p *Pyramid) *Image { return wavelet.Reconstruct(p) }

// Decomposer is the steady-state repeated-transform API: it owns its
// scratch arena and reuses the output pyramid across calls, so decoding
// an image stream at a fixed shape performs zero allocations per frame.
// Results are bit-identical to Decompose. Not safe for concurrent use;
// each returned pyramid is invalidated by the next call.
type Decomposer = wavelet.Decomposer

// NewDecomposer returns a Decomposer for the given bank and depth with
// periodic extension.
func NewDecomposer(bank *FilterBank, levels int) *Decomposer {
	return wavelet.NewDecomposer(bank, filter.Periodic, levels)
}

// ParallelDecompose is the shared-memory parallel decomposition; workers
// = 0 uses GOMAXPROCS. Results are identical to Decompose.
//
// Deprecated: use DecomposeWith(im, bank, WithLevels(levels),
// WithWorkers(workers)). This wrapper delegates to it and stays
// byte-identical.
func ParallelDecompose(im *Image, bank *FilterBank, levels, workers int) (*Pyramid, error) {
	return DecomposeWith(im, bank, WithLevels(levels), WithWorkers(workers))
}

// ParallelReconstruct inverts ParallelDecompose with the given worker
// count (0 = GOMAXPROCS).
func ParallelReconstruct(p *Pyramid, workers int) *Image {
	return core.ParallelReconstruct(p, workers)
}

// Machine is a simulated message-passing platform.
type Machine = mesh.Machine

// Paragon returns the calibrated JPL Intel Paragon model.
func Paragon() *Machine { return mesh.Paragon() }

// T3D returns the calibrated JPL Cray T3D model.
func T3D() *Machine { return mesh.T3D() }

// DEC5000 returns the workstation baseline of Table 1.
func DEC5000() *Machine { return mesh.DEC5000() }

// DistConfig configures a simulated distributed decomposition.
type DistConfig = core.DistConfig

// DistResult is a simulated distributed decomposition outcome.
type DistResult = core.DistResult

// DistributedDecompose runs the paper's striped SPMD algorithm on a
// simulated machine (see core.DistributedDecompose).
func DistributedDecompose(im *Image, cfg DistConfig) (*DistResult, error) {
	return core.DistributedDecompose(im, cfg)
}

// SnakePlacement returns the paper's snake-like rank placement for a
// partition of the given width.
func SnakePlacement(width int) mesh.Placement { return mesh.SnakePlacement{Width: width} }

// NaivePlacement returns the row-major placement whose XY-routing
// conflicts cap scalability at one partition row.
func NaivePlacement(width int) mesh.Placement { return mesh.NaivePlacement{Width: width} }

// MasParMP2 returns the calibrated 16K-PE MasPar MP-2 model.
func MasParMP2() *simd.Machine { return simd.MP2() }

// Table1MasPar returns the MP-2 seconds for the paper's three
// configurations (the MasPar row of Table 1).
func Table1MasPar() [3]float64 { return simd.Table1MasPar() }

// DistributedReconstruct inverts DistributedDecompose on the simulated
// machine (the paper's Figure 2 reverse process).
func DistributedReconstruct(p *Pyramid, cfg DistConfig) (*Image, error) {
	im, _, err := core.DistributedReconstruct(p, cfg)
	return im, err
}

// LandsatBands synthesizes a multi-band (Thematic-Mapper-style) scene:
// correlated spectral bands over shared terrain.
func LandsatBands(rows, cols, bands int, seed uint64) []*Image {
	return image.LandsatBands(rows, cols, bands, seed)
}

// DecomposeBatch decomposes a stream of images through a worker pool
// (0 = GOMAXPROCS), preserving order; results equal per-image Decompose.
//
// Deprecated: use DecomposeAllWith(images, bank, WithLevels(levels),
// WithWorkers(workers)). This wrapper delegates to it and stays
// byte-identical.
func DecomposeBatch(images []*Image, bank *FilterBank, levels, workers int) ([]*Pyramid, error) {
	return DecomposeAllWith(images, bank, WithLevels(levels), WithWorkers(workers))
}

// PadToDecomposable rounds an image up to dimensions divisible by
// 2^levels with symmetric extension, returning the padded image and the
// original size for cropping after reconstruction. It panics with a
// *wavelet.UsageError when levels is negative or 2^levels overflows an
// int, or when a padded side would exceed the PGM side cap.
func PadToDecomposable(im *Image, levels int) (padded *Image, origRows, origCols int) {
	return wavelet.PadToDecomposable(im, levels)
}

// Crop returns the top-left rows×cols region of im, inverting
// PadToDecomposable after reconstruction.
func Crop(im *Image, rows, cols int) *Image { return wavelet.Crop(im, rows, cols) }
