// Package poly provides the polynomial machinery of the Spartan+Orion
// protocol: dense multilinear extensions (MLEs) over the boolean
// hypercube, eq-polynomial tables, the variable-folding operation at the
// heart of the sumcheck dynamic-programming algorithm (paper Listing 1),
// and Lagrange interpolation over the small domains used by sumcheck
// round polynomials.
//
// Variable-order convention: an L-variable MLE is stored as 2^L
// evaluations, with variable 0 bound to the MOST significant index bit.
// Folding ("fixing") variable 0 at r maps A[b] ← A[b]·(1−r) + A[b+n/2]·r,
// exactly the update in the paper's Listing 1.
package poly

import (
	"context"
	"fmt"
	"math/bits"

	"nocap/internal/field"
	"nocap/internal/kernel"
)

// MLE is a dense multilinear extension: the evaluations of an L-variate
// multilinear polynomial on {0,1}^L, with variable 0 ↔ the MSB of the
// index.
type MLE struct {
	evals []field.Element
}

// NewMLE wraps evals (length must be a power of two) as an MLE. The slice
// is retained, not copied.
func NewMLE(evals []field.Element) *MLE {
	n := len(evals)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: MLE length %d is not a power of two", n))
	}
	return &MLE{evals: evals}
}

// NewMLEPadded copies v into a power-of-two-length evaluation vector of at
// least minLen, zero-padding the tail.
func NewMLEPadded(v []field.Element, minLen int) *MLE {
	n := 1
	for n < len(v) || n < minLen {
		n <<= 1
	}
	evals := make([]field.Element, n)
	copy(evals, v)
	return &MLE{evals: evals}
}

// NumVars returns L, the number of variables.
func (m *MLE) NumVars() int { return bits.TrailingZeros(uint(len(m.evals))) }

// Len returns 2^L.
func (m *MLE) Len() int { return len(m.evals) }

// Evals exposes the evaluation slice (shared, not a copy).
func (m *MLE) Evals() []field.Element { return m.evals }

// At returns the evaluation at hypercube index i.
func (m *MLE) At(i int) field.Element { return m.evals[i] }

// Clone returns a deep copy.
func (m *MLE) Clone() *MLE {
	return &MLE{evals: append([]field.Element(nil), m.evals...)}
}

// Fold fixes variable 0 (the MSB) to r, halving the table in place and
// returning the receiver. This is the DP array update of paper Listing 1:
// A[b] = A[b]·(1−rx) + A[b+s]·rx.
func (m *MLE) Fold(r field.Element) *MLE {
	return m.FoldCtx(context.Background(), r)
}

// FoldCtx is Fold with the fold's work attributed to the per-run stats
// collector carried by ctx (see kernel.WithCollector).
func (m *MLE) FoldCtx(ctx context.Context, r field.Element) *MLE {
	if len(m.evals) == 1 {
		panic("poly: cannot fold a 0-variable MLE")
	}
	// kernel.Fold reslices in place, keeping the original backing array
	// (and base pointer), so arena-owned evaluation slices can still be
	// returned by whoever checked them out.
	m.evals = kernel.FoldCtx(ctx, m.evals, r)
	return m
}

// Evaluate computes the MLE at an arbitrary point r ∈ F^L (len(r) must be
// L). It folds a scratch copy variable by variable: O(2^L) multiplies.
func (m *MLE) Evaluate(r []field.Element) field.Element {
	if len(r) != m.NumVars() {
		panic("poly: evaluate point dimension mismatch")
	}
	if len(r) == 0 {
		return m.evals[0]
	}
	scratch := m.Clone()
	for _, ri := range r {
		scratch.Fold(ri)
	}
	return scratch.evals[0]
}

// EqTable returns the 2^L-entry table of eq(r, b) for b ∈ {0,1}^L, where
// eq(r, b) = Π_k (r_k·b_k + (1−r_k)(1−b_k)) and r_0 pairs with the MSB of
// the index. Row i of the table is the Lagrange basis weight of hypercube
// vertex i at point r; Σ_i table[i]·f(i) = f̃(r).
func EqTable(r []field.Element) []field.Element {
	table := make([]field.Element, 1<<len(r))
	kernel.EqExpand(table, r)
	return table
}

// EqTableCtx is EqTable with the expansion's work attributed to the
// per-run stats collector carried by ctx.
func EqTableCtx(ctx context.Context, r []field.Element) []field.Element {
	table := make([]field.Element, 1<<len(r))
	kernel.EqExpandCtx(ctx, table, r)
	return table
}

// EqTableIntoCtx fills table (length exactly 2^len(r), typically arena
// scratch) with the same expansion as EqTable, without allocating. The
// expansion's work is attributed to the per-run stats collector carried
// by ctx.
func EqTableIntoCtx(ctx context.Context, table []field.Element, r []field.Element) {
	kernel.EqExpandCtx(ctx, table, r)
}

// EqEval returns eq(a, b) for two points of equal dimension.
func EqEval(a, b []field.Element) field.Element {
	if len(a) != len(b) {
		panic("poly: eq dimension mismatch")
	}
	acc := field.One
	for i := range a {
		// a·b + (1−a)(1−b) = 1 − a − b + 2ab
		ab := field.Mul(a[i], b[i])
		term := field.Add(field.Sub(field.Sub(field.One, a[i]), b[i]), field.Double(ab))
		acc = field.Mul(acc, term)
	}
	return acc
}

// interpMaxDegree is the largest degree whose Lagrange denominators are
// memoised; sumcheck round polynomials here are degree 2 or 3, generic
// combiners a few more. Higher degrees work too, at the old price.
const interpMaxDegree = 15

// interpInvDenoms[d][i] = 1 / (i!·(d−i)!·(−1)^(d−i)): the Lagrange
// denominators on the domain {0,…,d}, which depend on d alone. Each is
// an Exp-based inversion, so they are computed once.
var interpInvDenoms = func() (t [interpMaxDegree + 1][]field.Element) {
	for d := range t {
		t[d] = lagrangeInvDenoms(d)
	}
	return t
}()

// lagrangeInvDenoms computes the inverse Lagrange denominators of the
// domain {0,…,d}.
func lagrangeInvDenoms(d int) []field.Element {
	fact := make([]field.Element, d+1)
	fact[0] = field.One
	for i := 1; i <= d; i++ {
		fact[i] = field.Mul(fact[i-1], field.New(uint64(i)))
	}
	inv := make([]field.Element, d+1)
	for i := range inv {
		denom := field.Mul(fact[i], fact[d-i])
		if (d-i)%2 == 1 {
			denom = field.Neg(denom)
		}
		inv[i] = field.Inv(denom)
	}
	return inv
}

// InterpolateEval returns q(x) for the unique polynomial q of degree
// ≤ len(vals)−1 with q(i) = vals[i] for i = 0..len(vals)−1, via Lagrange
// interpolation on the small domain {0,…,d}. Sumcheck verifiers use this
// to evaluate round polynomials at the challenge. Up to interpMaxDegree
// it allocates nothing and inverts nothing: the denominators are
// memoised and the one scratch vector lives on the stack.
func InterpolateEval(vals []field.Element, x field.Element) field.Element {
	d := len(vals) - 1
	if d < 0 {
		panic("poly: empty interpolation")
	}
	// If x is in the domain, return directly (avoids zero denominators).
	if x.Uint64() <= uint64(d) {
		return vals[x.Uint64()]
	}
	var inv, suffix []field.Element
	var stack [interpMaxDegree + 1]field.Element
	if d <= interpMaxDegree {
		inv, suffix = interpInvDenoms[d], stack[:d+1]
	} else {
		inv, suffix = lagrangeInvDenoms(d), make([]field.Element, d+1)
	}
	// q(x) = Σ_i vals[i]·prefix_i·suffix_i / denom_i with
	// prefix_i = Π_{j<i} (x−j) and suffix_i = Π_{j>i} (x−j).
	suffix[d] = field.One
	for i := d - 1; i >= 0; i-- {
		suffix[i] = field.Mul(suffix[i+1], field.Sub(x, field.New(uint64(i+1))))
	}
	prefix := field.One
	var acc field.Acc
	for i, v := range vals {
		acc = acc.AddMul(field.Mul(v, field.Mul(prefix, suffix[i])), inv[i])
		prefix = field.Mul(prefix, field.Sub(x, field.New(uint64(i))))
	}
	return acc.Reduce()
}

// UnivariateEval evaluates a coefficient-form polynomial at x via Horner.
func UnivariateEval(coeffs []field.Element, x field.Element) field.Element {
	var acc field.Element
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = field.Add(field.Mul(acc, x), coeffs[i])
	}
	return acc
}
