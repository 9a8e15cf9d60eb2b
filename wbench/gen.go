package main

import (
	"fmt"
	"math"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// rng is a SplitMix64 stream, the benchmark's only source of randomness:
// one seed fixes every input image and every operation order.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// derive folds labels into a seed, giving independent streams for
// independent uses of one workload seed.
func derive(seed uint64, labels ...uint64) uint64 {
	r := rng{s: seed}
	for _, l := range labels {
		r.s ^= l * 0xd6e8feb86659fd93
		r.next()
	}
	return r.next()
}

// shuffled returns a seeded permutation of deck.
func shuffled[T any](deck []T, seed uint64) []T {
	out := append([]T(nil), deck...)
	r := rng{s: seed}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// landsat returns an integer-valued synthetic scene, so that its PGM form
// is exact and a reconstruction quantises back to the input.
func landsat(rows, cols int, seed uint64) *image.Image {
	im := image.Landsat(rows, cols, seed)
	for i, v := range im.Pix {
		im.Pix[i] = math.Round(v)
	}
	return im
}

// bankSpec is a filter bank plus the drift tolerance requests use with
// it: 0 keeps the bit-identical convolution tier, a lifted spec carries
// the scheme's own Eps and so selects the lifting tier.
type bankSpec struct {
	name string
	bank *filter.Bank
	tol  float64
}

func (b bankSpec) lifted() bool { return b.tol > 0 }

func (b bankSpec) String() string {
	if b.lifted() {
		return b.name + "@eps"
	}
	return b.name
}

func convBank(name string) bankSpec {
	b, err := filter.ByName(name)
	if err != nil {
		panic(err) // the names below are catalog constants
	}
	return bankSpec{name: name, bank: b}
}

// liftedBank returns name at its lifting scheme's advertised Eps.
func liftedBank(name string) bankSpec {
	s := convBank(name)
	sch := wavelet.LiftingFor(s.bank, filter.Periodic, 1)
	if sch == nil {
		panic(fmt.Sprintf("wbench: bank %s has no lifting scheme", name))
	}
	s.tol = sch.Eps
	return s
}

// zipfCounts splits total draws over n items with weights 1/k^s, each
// item getting at least one draw; the counts sum to total.
func zipfCounts(n, total int, s float64) []int {
	var h float64
	for k := 1; k <= n; k++ {
		h += math.Pow(float64(k), -s)
	}
	counts := make([]int, n)
	sum := 0
	for k := range counts {
		c := int(math.Round(float64(total) * math.Pow(float64(k+1), -s) / h))
		if c < 1 {
			c = 1
		}
		counts[k] = c
		sum += c
	}
	counts[0] += total - sum
	return counts
}
