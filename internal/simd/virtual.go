package simd

import (
	"fmt"

	"wavelethpc/internal/wavelet"
)

// Virtualization layouts, made functional: when the image is larger than
// the PE array, each logical pixel is owned by a physical PE, and a
// systolic shift is an X-net transfer only when source and destination
// pixels live on different PEs. Counting the actual boundary crossings of
// each layout grounds the cost model's locality claim ("the hierarchical
// gave the best results since it improves data locality").

// Layout maps an n×n logical pixel array onto a machine's PE grid.
type Layout struct {
	M    *Machine
	Virt Virtualization
	// N is the logical (image) side length.
	N int
}

// NewLayout validates and builds a layout. n must be a multiple of both
// grid dimensions.
func NewLayout(m *Machine, virt Virtualization, n int) (*Layout, error) {
	if n < m.GridX || n%m.GridX != 0 || n%m.GridY != 0 {
		return nil, fmt.Errorf("simd: image side %d not a multiple of the %dx%d PE grid", n, m.GridX, m.GridY)
	}
	return &Layout{M: m, Virt: virt, N: n}, nil
}

// OwnerPE returns the physical PE coordinates owning logical pixel (r, c).
//
// Hierarchical assigns each PE a contiguous (N/GridY)×(N/GridX) subimage;
// cut-and-stack tiles the image into PE-array-sized layers, so adjacent
// logical pixels always land on adjacent *physical* PEs.
func (l *Layout) OwnerPE(r, c int) (px, py int) {
	switch l.Virt {
	case Hierarchical:
		return c / (l.N / l.M.GridX), r / (l.N / l.M.GridY)
	default: // CutAndStack
		return c % l.M.GridX, r % l.M.GridY
	}
}

// RowShiftCrossings returns how many of the N² logical pixels change
// physical PE under a horizontal toroidal shift by dist — the transfers
// that must use the X-net instead of PE-local memory.
func (l *Layout) RowShiftCrossings(dist int) int {
	dist = ((dist % l.N) + l.N) % l.N
	if dist == 0 {
		return 0
	}
	// Ownership depends only on the column, so count crossing columns
	// and multiply by N rows.
	crossCols := 0
	for c := 0; c < l.N; c++ {
		sx, _ := l.OwnerPE(0, (c+dist)%l.N)
		dx, _ := l.OwnerPE(0, c)
		if sx != dx {
			crossCols++
		}
	}
	return crossCols * l.N
}

// CrossingFraction is RowShiftCrossings(dist) over the logical pixel
// count.
func (l *Layout) CrossingFraction(dist int) float64 {
	return float64(l.RowShiftCrossings(dist)) / float64(l.N*l.N)
}

// MeasuredShiftCycles prices one systolic shift step of the given
// distance using the layout's measured boundary-crossing fraction: X-net
// cycles for crossing transfers (per hop), local-memory cycles otherwise.
func (l *Layout) MeasuredShiftCycles(dist int) float64 {
	frac := l.CrossingFraction(dist)
	// Crossing transfers travel ceil(dist / pixelsPerPE) physical hops
	// under hierarchical layout; exactly dist hops under cut-and-stack.
	hops := dist
	if l.Virt == Hierarchical {
		per := l.N / l.M.GridX
		hops = (dist + per - 1) / per
	}
	if hops < 1 {
		hops = 1
	}
	return frac*l.M.XNetCycles*float64(hops) + (1-frac)*l.M.MemShiftCycles
}

// MeasuredDecomposeTime prices a levels-deep decomposition like
// Machine.DecomposeTime but with shift costs from the layout's measured
// crossings instead of the closed-form approximation.
func (l *Layout) MeasuredDecomposeTime(alg Algorithm, f, levels int) (float64, error) {
	if levels <= 0 || f <= 0 {
		return 0, fmt.Errorf("simd: invalid f=%d levels=%d", f, levels)
	}
	if !wavelet.DivisiblePow2(l.N, levels) {
		return 0, fmt.Errorf("simd: %d not divisible by 2^%d", l.N, levels)
	}
	m := l.M
	pes := float64(m.PEs())
	var cycles float64
	size := l.N
	for lvl := 0; lvl < levels; lvl++ {
		outputsPerPE := 2 * float64(size) * float64(size) / pes
		dist := 1
		if alg == Dilution {
			dist = 1 << uint(lvl)
		}
		step := m.BroadcastCycles + m.MACCycles + l.MeasuredShiftCycles(dist)
		cycles += outputsPerPE * float64(f) * step
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
