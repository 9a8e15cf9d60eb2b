package kernel

import (
	"sync"

	"wavelethpc/internal/image"
)

// Arena is the reusable scratch of one in-flight transform: a
// ping-pong pair for the LL chain between levels and the Ring of the
// fused level sweep when it runs as one range. Buffers are sized once
// at the top level (the deeper levels fit inside the same slabs) and grow
// only when a larger image arrives, so steady-state decompositions
// allocate nothing. An Arena is not safe for concurrent use by multiple
// transforms, but the images it hands out may be filled from many
// goroutines over disjoint ranges.
type Arena struct {
	llBuf [2][]float64
	ll    [2]image.Image
	ring  Ring
}

// grow returns buf resized to n samples, reallocating only when the
// capacity is insufficient.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// view points header at a rows×cols tight-stride image over buf.
func view(header *image.Image, buf []float64, rows, cols int) *image.Image {
	header.Rows, header.Cols, header.Stride, header.Pix = rows, cols, cols, buf
	return header
}

// LL returns the rows×cols scratch image holding an intermediate LL
// band. Two slots ping-pong across levels: level l writes slot l%2 while
// reading the previous level's LL from slot (l-1)%2.
func (ar *Arena) LL(slot, rows, cols int) *image.Image {
	n := rows * cols
	ar.llBuf[slot] = grow(ar.llBuf[slot], n)
	return view(&ar.ll[slot], ar.llBuf[slot][:n], rows, cols)
}

// Ring returns the arena's level-sweep scratch, for an
// AnalyzeLevelRange, LiftLevelRange or SynthesizeLevelRange call that
// covers a whole level on one goroutine.
func (ar *Arena) Ring() *Ring { return &ar.ring }

// Ring is the scratch of one fused level sweep: row slots (each slot
// 2·n samples) and a tap table. AnalyzeLevelRange keeps its filtered
// L/H rows in the slots and points the taps of its column combine at
// them; LiftLevelRange keeps the row-lifted halves of its ring and extra
// rows in the slots and its ring rows, twice over, in the taps;
// SynthesizeLevelRange keeps the L|H row and the term weights of one
// output row in a slot and the term source rows in the taps. It grows
// on demand and is reused across calls.
type Ring struct {
	buf  []float64
	taps [][]float64
}

// reserve sizes the ring for slots slots of n-sample L/H row pairs and a
// tap table of taps entries, and returns the slot storage. It is kept
// out of line so its grow-on-demand allocations stay in this file.
//
//go:noinline
func (r *Ring) reserve(slots, n, taps int) []float64 {
	r.buf = grow(r.buf, 2*slots*n)
	if cap(r.taps) < taps {
		r.taps = make([][]float64, taps)
	}
	r.taps = r.taps[:taps]
	return r.buf
}

// ringPool recycles the per-range rings of sweeps (forward or inverse)
// that split a level across goroutines.
var ringPool = sync.Pool{New: func() any { return new(Ring) }}

// GetRing takes a ring from the shared pool.
func GetRing() *Ring { return ringPool.Get().(*Ring) }

// PutRing returns a ring to the shared pool.
func PutRing(r *Ring) { ringPool.Put(r) }

// arenaPool recycles arenas across decompositions; DecomposeBatch
// workers and repeated Decompose calls reach steady state with zero
// scratch allocations.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena takes an arena from the shared pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena returns an arena to the shared pool. The caller must not
// retain any image previously handed out by it.
func PutArena(ar *Arena) { arenaPool.Put(ar) }
