package kernel

import "nocap/internal/field"

// Sumcheck round loops for the two summand shapes Spartan uses:
//
//	cubic    eq·(a·b − c)   outer sumcheck, degree 3, evaluations at t = 0…3
//	product  m·z            inner sumcheck, degree 2, evaluations at t = 0…2
//
// Each loop covers a contiguous range [lo, hi) of hypercube points and
// returns that range's contribution to the round polynomial, so the
// sumcheck driver can cut a round into blocks (cancellation polls) and
// chunks (the worker pool) and add the parts in any order — field
// addition is exact, so the sum does not depend on the cut.
//
// Dataflow per point j, for every array x: the low and high halves
// x[j], x[j+half] are read once; the difference d = hi − lo is hoisted;
// the values at t = 0, 1 are lo, hi themselves and each further t adds d.
// The Go loop puts the outer multiply of every term into a delayed-
// reduction accumulator (field.Acc) that lives in registers across the
// range and is reduced once at the end; the 8-lane loop keeps one
// canonical sum per lane and adds the eight lanes once at the end.
//
// The Fold variants first bind the previous round's challenge r: the
// arrays still have their pre-fold length 4·half, and point j needs the
// two folded values x'[j] = x[j] + r·(x[j+2·half] − x[j]) and
// x'[j+half] = x[j+half] + r·(x[j+3·half] − x[j+half]). They are stored
// where the folded array lives (the first 2·half entries, so the caller
// reslices the prefix and an arena-owned slice keeps its base pointer)
// and the round polynomial is evaluated on them while they are still in
// L1: the range is walked in fuseBlock-point blocks, each folded and then
// evaluated, so a round is one sweep over memory instead of a fold sweep
// followed by an evaluation sweep. Aliasing rule: point j reads indices
// j, j+half, j+2·half, j+3·half and writes j and j+half, so disjoint
// point ranges touch disjoint entries and ranges may run concurrently.
//
// The arithmetic runs in internal/field's slice kernels (field.Fold,
// field.CubicSums, field.ProductSums): eight lanes at a time where the
// CPU has AVX-512F, the pure-Go loop otherwise. The loops are pure (no
// spans, no context): the caller owns attribution and cancellation.
// CubicMuls, ProductMuls and FoldMuls are their multiply counts per point
// for the §III counter.

const (
	// CubicMuls is the number of 64-bit multiplies per point of
	// CubicRound (two per evaluation point); CubicFoldRound adds FoldMuls
	// for each of its four arrays.
	CubicMuls = 8
	// ProductMuls is the number of 64-bit multiplies per point of
	// ProductRound; ProductFoldRound adds FoldMuls for each of its two
	// arrays.
	ProductMuls = 3
	// FoldMuls is the number of multiplies a fused fold spends per point
	// per array (one for each of the two folded values).
	FoldMuls = 2
)

// fuseBlock is how many points a fused round folds before evaluating
// them: 4 arrays × 2 halves × 256 points × 8 B = 16 KB, half an L1.
const fuseBlock = 256

// foldRange binds r into points [lo, hi) of x (pre-fold length 4·half):
// both folded values of every point, stored at j and j+half.
func foldRange(x []field.Element, r field.Element, half, lo, hi int) {
	for k := 0; k < 2; k++ {
		field.Fold(x[k*half+lo:k*half+hi], x[(k+2)*half+lo:(k+2)*half+hi], r)
	}
}

// CubicRound returns Σ_{j∈[lo,hi)} eq·(a·b − c) evaluated at t = 0…3,
// where each array of length 2·half contributes x[j] + t·(x[j+half] − x[j]).
func CubicRound(eq, a, b, c []field.Element, half, lo, hi int) [4]field.Element {
	return field.CubicSums(eq[lo:hi], eq[half+lo:half+hi], a[lo:hi], a[half+lo:half+hi],
		b[lo:hi], b[half+lo:half+hi], c[lo:hi], c[half+lo:half+hi])
}

// CubicFoldRound binds the previous challenge r into the four arrays
// (length 4·half before, 2·half after; see the file comment) and returns
// the same sums as CubicRound over the folded arrays, in one pass.
func CubicFoldRound(eq, a, b, c []field.Element, r field.Element, half, lo, hi int) [4]field.Element {
	var sums [4]field.Element
	for ; lo < hi; lo += fuseBlock {
		end := min(lo+fuseBlock, hi)
		foldRange(eq, r, half, lo, end)
		foldRange(a, r, half, lo, end)
		foldRange(b, r, half, lo, end)
		foldRange(c, r, half, lo, end)
		for t, v := range CubicRound(eq, a, b, c, half, lo, end) {
			sums[t] = field.Add(sums[t], v)
		}
	}
	return sums
}

// ProductRound returns Σ_{j∈[lo,hi)} m·z evaluated at t = 0…2, with the
// same array convention as CubicRound.
func ProductRound(m, z []field.Element, half, lo, hi int) [3]field.Element {
	return field.ProductSums(m[lo:hi], m[half+lo:half+hi], z[lo:hi], z[half+lo:half+hi])
}

// ProductFoldRound is ProductRound fused with the fold at r, with the
// same array convention as CubicFoldRound.
func ProductFoldRound(m, z []field.Element, r field.Element, half, lo, hi int) [3]field.Element {
	var sums [3]field.Element
	for ; lo < hi; lo += fuseBlock {
		end := min(lo+fuseBlock, hi)
		foldRange(m, r, half, lo, end)
		foldRange(z, r, half, lo, end)
		for t, v := range ProductRound(m, z, half, lo, end) {
			sums[t] = field.Add(sums[t], v)
		}
	}
	return sums
}
