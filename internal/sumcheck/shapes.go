package sumcheck

import (
	"context"
	"math/bits"

	"nocap/internal/field"
	"nocap/internal/kernel"
	"nocap/internal/transcript"
)

// The two summand shapes Spartan proves, each with a dedicated loop in
// internal/kernel behind the same round driver as the generic Combiner
// path: the arrays are plain slices (no closure, no scratch vector), and
// from round 1 on the fold at the previous challenge is fused into the
// pass that evaluates the round polynomial. Both produce exactly the
// proof ProveCtx produces for the same summand — field arithmetic is
// exact, so a different loop order cannot change a byte.

// shape is the rounder of a summand with dedicated kernel loops.
type shape struct {
	arrays [][]field.Element
	degree int
	muls   int // multiplies per point of eval, for the §III counter
	// eval adds the round polynomial's evaluations over points [lo, hi)
	// into sums; fused first binds r into the arrays (pre-fold length
	// 4·half, see kernel/round.go).
	eval  func(x [][]field.Element, half, lo, hi int, sums []field.Element)
	fused func(x [][]field.Element, r field.Element, half, lo, hi int, sums []field.Element)
}

// newShape panics unless every array has the same power-of-two length
// ≥ 2, and returns the rounder and the number of variables.
func newShape(k shape, arrays ...[]field.Element) (*shape, int) {
	n := len(arrays[0])
	if n < 2 || n&(n-1) != 0 {
		panic("sumcheck: array length must be a power of two ≥ 2")
	}
	for _, x := range arrays {
		if len(x) != n {
			panic("sumcheck: oracle dimension mismatch")
		}
	}
	k.arrays = arrays
	return &k, bits.TrailingZeros(uint(n))
}

func (k *shape) round(ctx context.Context, prev *field.Element) ([]field.Element, error) {
	if prev == nil {
		half := len(k.arrays[0]) / 2
		field.AddMulCount(uint64(half * k.muls))
		return sweep(ctx, half, k.degree, func(lo, hi int, sums []field.Element) {
			k.eval(k.arrays, half, lo, hi, sums)
		})
	}
	half := len(k.arrays[0]) / 4
	r := *prev
	field.AddMulCount(uint64(half * (k.muls + len(k.arrays)*kernel.FoldMuls)))
	evals, err := sweep(ctx, half, k.degree, func(lo, hi int, sums []field.Element) {
		k.fused(k.arrays, r, half, lo, hi, sums)
	})
	for i, x := range k.arrays {
		k.arrays[i] = x[:2*half]
	}
	return evals, err
}

// finals folds the two-entry arrays at the final challenge.
func (k *shape) finals(_ context.Context, r field.Element) []field.Element {
	field.AddMulCount(uint64(len(k.arrays)))
	out := make([]field.Element, len(k.arrays))
	for i, x := range k.arrays {
		out[i] = field.MulAdd(r, field.Sub(x[1], x[0]), x[0])
	}
	return out
}

var cubicShape = shape{
	degree: 3,
	muls:   kernel.CubicMuls,
	eval: func(x [][]field.Element, half, lo, hi int, sums []field.Element) {
		part := kernel.CubicRound(x[0], x[1], x[2], x[3], half, lo, hi)
		field.VecAdd(sums, sums, part[:])
	},
	fused: func(x [][]field.Element, r field.Element, half, lo, hi int, sums []field.Element) {
		part := kernel.CubicFoldRound(x[0], x[1], x[2], x[3], r, half, lo, hi)
		field.VecAdd(sums, sums, part[:])
	},
}

var productShape = shape{
	degree: 2,
	muls:   kernel.ProductMuls,
	eval: func(x [][]field.Element, half, lo, hi int, sums []field.Element) {
		part := kernel.ProductRound(x[0], x[1], half, lo, hi)
		field.VecAdd(sums, sums, part[:])
	},
	fused: func(x [][]field.Element, r field.Element, half, lo, hi int, sums []field.Element) {
		part := kernel.ProductFoldRound(x[0], x[1], r, half, lo, hi)
		field.VecAdd(sums, sums, part[:])
	},
}

// ProveCubicCtx is ProveCtx for the summand eq·(a·b − c) (degree 3):
// Spartan's outer sumcheck. The four arrays are overwritten (their
// prefixes hold the folded DP arrays; discard them afterwards). finals
// are eq(r), a(r), b(r), c(r), in that order.
func ProveCubicCtx(ctx context.Context, tr *transcript.Transcript, label string, claim field.Element,
	eq, a, b, c []field.Element) (*Proof, []field.Element, []field.Element, error) {

	k, numVars := newShape(cubicShape, eq, a, b, c)
	return drive(ctx, tr, label, claim, numVars, fiProveRound, k)
}

// ProveProductCtx is ProveCtx for the summand m·z (degree 2): Spartan's
// inner sumcheck. Both arrays are overwritten; finals are m(r), z(r).
func ProveProductCtx(ctx context.Context, tr *transcript.Transcript, label string, claim field.Element,
	m, z []field.Element) (*Proof, []field.Element, []field.Element, error) {

	k, numVars := newShape(productShape, m, z)
	return drive(ctx, tr, label, claim, numVars, fiProveRound, k)
}
