//go:build !amd64 || purego

package kernel

import (
	"math"

	"wavelethpc/internal/filter"
)

// liftVecMin is the narrowest run liftVec takes; this build has no
// vector routine, so no run reaches it.
const liftVecMin = math.MaxInt

// liftVec is the AVX2 lifting routine, which this build lacks: it
// reports false and the caller runs its Go loop.
//
//wavelint:hotpath
func liftVec(out, d []float64, x [][]float64, t []float64, c float64, zero bool) bool {
	return false
}

// liftRowVec is liftRow on the AVX2 routine, which this build lacks: it
// reports false and liftRow runs its Go loops.
//
//wavelint:hotpath
func liftRowVec(x, s, d []float64, sch *filter.LiftingScheme) bool {
	return false
}
