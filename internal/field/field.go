// Package field implements arithmetic in the Goldilocks-64 prime field,
// GF(p) with p = 2^64 − 2^32 + 1, the field NoCap's functional units
// operate on (paper §IV-A). The prime admits a reduction using only
// additions and shifts, which is what makes 64-bit modular multiplies
// cheap both on CPUs and in NoCap's multiplier FU.
//
// The package also provides the root-of-unity machinery required by the
// NTT (the multiplicative group has order p−1 = 2^32 · 3 · 5 · 17 · 257 ·
// 65537, so radix-2 NTTs up to 2^32 points exist) and an optional 64-bit
// multiply counter used by the paper's §III efficiency analysis.
//
// Add, Sub, Mul and Square are written to fit the compiler's inlining
// budget (`make inline-check` guards it): every hot loop of the prover is
// built from them, and a call per multiply costs more than the multiply.
package field

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Modulus is the Goldilocks prime p = 2^64 − 2^32 + 1.
const Modulus uint64 = 0xFFFFFFFF00000001

// epsilon = 2^64 mod p = 2^32 − 1. Adding 2^64 modulo p is adding epsilon.
const epsilon uint64 = 0xFFFFFFFF

// Generator is a generator of the full multiplicative group GF(p)*.
const Generator uint64 = 7

// TwoAdicity is the largest k with 2^k | p−1; NTT sizes up to 2^k exist.
const TwoAdicity = 32

// Element is a field element. The representation is canonical: always in
// [0, p). The zero value is the field's zero.
type Element uint64

// mulCount counts 64-bit integer multiplies when counting is enabled.
// It backs the §III "critical operation" analysis.
var mulCount atomic.Uint64

// countMuls gates instrumentation; it is toggled by EnableMulCount.
var countMuls atomic.Bool

// EnableMulCount turns the 64-bit multiply counter on or off and resets it.
func EnableMulCount(on bool) {
	countMuls.Store(on)
	mulCount.Store(0)
}

// MulCount returns the number of 64-bit multiplies credited since the
// counter was last reset. Each Goldilocks multiply is one 64×64 full
// multiply (bits.Mul64), which is the unit the paper counts.
func MulCount() uint64 { return mulCount.Load() }

// AddMulCount credits n multiplies to the counter when counting is on.
// Mul itself never touches the counter — a per-multiply atomic load made
// it too expensive to inline — so the code that loops over multiplies
// credits its exact count here once per invocation: the vector helpers
// below, the kernel layer, the NTT, and cost models that account for
// multiplies performed outside this package (e.g. the Groth16 baseline's
// 381-bit limb products).
func AddMulCount(n uint64) {
	if countMuls.Load() {
		mulCount.Add(n)
	}
}

// New returns the element congruent to v mod p. It silently reduces
// non-canonical values and is therefore for trusted, internal use only;
// untrusted wire input must go through FromCanonical so that two distinct
// byte strings never decode to the same element.
func New(v uint64) Element {
	if v >= Modulus {
		v -= Modulus
	}
	return Element(v)
}

// FromCanonical validates that v is a canonical representative in [0, p)
// and returns it as an element. It is the required entry point for
// attacker-controlled encodings: ok is false for v ≥ p, and callers must
// reject the input rather than reduce it.
func FromCanonical(v uint64) (Element, bool) {
	if v >= Modulus {
		return 0, false
	}
	return Element(v), true
}

// Zero and One are the additive and multiplicative identities.
const (
	Zero Element = 0
	One  Element = 1
)

// Uint64 returns the canonical representative in [0, p).
func (e Element) Uint64() uint64 { return uint64(e) }

// IsZero reports whether e is the additive identity.
func (e Element) IsZero() bool { return e == 0 }

// String implements fmt.Stringer.
func (e Element) String() string { return fmt.Sprintf("%d", uint64(e)) }

// Add returns a+b mod p.
func Add(a, b Element) Element {
	s, carry := bits.Add64(uint64(a), uint64(b), 0)
	// a,b < p, so a+b < 2^65. If it overflowed, the true sum is
	// s + 2^64 ≡ s + epsilon (mod p), and s ≤ 2p−2−2^64 < 2^64 − 2^33, so
	// adding epsilon cannot overflow and lands below p. The mask
	// (epsilon when carry is 1, else 0) keeps the adjustment branch-free.
	s += epsilon & -carry
	if s >= Modulus {
		s -= Modulus
	}
	return Element(s)
}

// Sub returns a−b mod p.
func Sub(a, b Element) Element {
	d, borrow := bits.Sub64(uint64(a), uint64(b), 0)
	// On borrow d wrapped to a−b+2^64; subtracting epsilon = 2^64−p
	// leaves a−b+p, which is in range.
	return Element(d - epsilon&-borrow)
}

// Neg returns −a mod p.
func Neg(a Element) Element {
	if a == 0 {
		return 0
	}
	return Element(Modulus - uint64(a))
}

// Double returns 2a mod p.
func Double(a Element) Element { return Add(a, a) }

// reduce128 reduces hi·2^64 + lo modulo p, for any 128-bit input.
//
// Using 2^64 ≡ 2^32 − 1 and 2^96 ≡ −1 (mod p): write hi = h1·2^32 + h0.
// Then x ≡ lo − h1 + h0·(2^32 − 1) (mod p). The two wrap corrections are
// masks rather than branches; only the final canonicalization compares.
func reduce128(hi, lo uint64) Element {
	// A borrow means t = lo − h1 + 2^64 with lo < h1 < 2^32, so
	// t > 2^64 − 2^32 and removing the excess 2^64 ≡ epsilon cannot wrap.
	t, borrow := bits.Sub64(lo, hi>>32, 0)
	t -= epsilon & -borrow
	// h0 < 2^32, so h0·epsilon fits in 64 bits. A carry means
	// r = t + m − 2^64 < m ≤ (2^32−1)², so r + epsilon < p: no second wrap,
	// and the result is already canonical on that path.
	r, carry := bits.Add64(t, (hi&epsilon)*epsilon, 0)
	r += epsilon & -carry
	if r >= Modulus {
		r -= Modulus
	}
	return Element(r)
}

// Mul returns a·b mod p.
func Mul(a, b Element) Element {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return reduce128(hi, lo)
}

// Square returns a² mod p.
func Square(a Element) Element { return Mul(a, a) }

// MulAdd returns a·b + c mod p with a single reduction: c is added into
// the 128-bit product (a·b + c < p² + p < 2^128) before reducing.
func MulAdd(a, b, c Element) Element {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	lo, carry := bits.Add64(lo, uint64(c), 0)
	return reduce128(hi+carry, lo)
}

// MulPow2 returns a·2^k mod p for 0 < k < 64 without a multiply
// instruction: the product is a 128-bit shift. The NTT uses it for the
// radix-4 butterfly's fourth root of unity, which is 2^48 in this field.
func MulPow2(a Element, k uint) Element {
	return reduce128(uint64(a)>>(64-k), uint64(a)<<k)
}

// Acc is a delayed-reduction accumulator for sums of products: a 128-bit
// running sum plus a count of the times it wrapped, reduced once at the
// end instead of once per term. The zero value is an empty sum. Each
// AddMul costs one multiply and three adds; the sum it represents is
// over·2^128 + hi·2^64 + lo exactly, so any number of products below
// 2^64 — every slice Go can hold — fits before Reduce.
//
// Acc has value semantics (x = x.AddMul(a, b)) so that the compiler keeps
// the three words in registers across a loop.
type Acc struct{ lo, hi, over uint64 }

// AccOf returns the accumulator holding the single value e.
func AccOf(e Element) Acc { return Acc{lo: uint64(e)} }

// AddMul returns x + a·b, unreduced.
func (x Acc) AddMul(a, b Element) Acc {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	lo, c := bits.Add64(x.lo, lo, 0)
	hi, c = bits.Add64(x.hi, hi, c)
	return Acc{lo, hi, x.over + c}
}

// Reduce returns the accumulated sum mod p. 2^128 = 2^96·2^32 ≡ −2^32,
// so the wrap count contributes −over·2^32.
func (x Acc) Reduce() Element {
	return Sub(reduce128(x.hi, x.lo), reduce128(x.over>>32, x.over<<32))
}

// Exp returns a^e mod p by square-and-multiply.
func Exp(a Element, e uint64) Element {
	result := One
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Square(base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a, or 0 if a is 0.
// It uses Fermat's little theorem: a^(p−2).
func Inv(a Element) Element {
	if a == 0 {
		return 0
	}
	return Exp(a, Modulus-2)
}

// Div returns a/b mod p; it panics if b is zero.
func Div(a, b Element) Element {
	if b == 0 {
		panic("field: division by zero")
	}
	return Mul(a, Inv(b))
}

// BatchInv inverts all elements of vs in place using Montgomery's trick:
// one inversion plus 3(n−1) multiplies. Zero entries are left as zero.
func BatchInv(vs []Element) {
	if len(vs) == 0 {
		return
	}
	prefix := make([]Element, len(vs))
	acc := One
	for i, v := range vs {
		prefix[i] = acc
		if v != 0 {
			acc = Mul(acc, v)
		}
	}
	inv := Inv(acc)
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i] == 0 {
			continue
		}
		tmp := Mul(inv, vs[i])
		vs[i] = Mul(inv, prefix[i])
		inv = tmp
	}
}

// RootOfUnity returns a primitive 2^logN-th root of unity.
// It panics if logN exceeds the field's two-adicity.
func RootOfUnity(logN int) Element {
	if logN < 0 || logN > TwoAdicity {
		panic(fmt.Sprintf("field: no 2^%d-th root of unity", logN))
	}
	// Generator^((p−1)/2^32) is a primitive 2^32-nd root; square down.
	root := Exp(Element(Generator), (Modulus-1)>>TwoAdicity)
	for i := TwoAdicity; i > logN; i-- {
		root = Square(root)
	}
	return root
}

// InnerProduct returns Σ a[i]·b[i]. The slices must have equal length.
func InnerProduct(a, b []Element) Element {
	if len(a) != len(b) {
		panic("field: inner product length mismatch")
	}
	var acc Acc
	for i := range a {
		acc = acc.AddMul(a[i], b[i])
	}
	AddMulCount(uint64(len(a)))
	return acc.Reduce()
}

// VecAdd sets dst[i] = a[i] + b[i]. Slices must have equal length.
func VecAdd(dst, a, b []Element) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("field: vector add length mismatch")
	}
	for i := range a {
		dst[i] = Add(a[i], b[i])
	}
}

// VecScaleAdd sets dst[i] = dst[i] + s·a[i].
func VecScaleAdd(dst []Element, s Element, a []Element) {
	if len(dst) != len(a) {
		panic("field: vector scale-add length mismatch")
	}
	for i := range a {
		dst[i] = MulAdd(s, a[i], dst[i])
	}
	AddMulCount(uint64(len(a)))
}

// VecMul sets dst[i] = a[i] · b[i]. Slices must have equal length.
func VecMul(dst, a, b []Element) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("field: vector mul length mismatch")
	}
	for i := range a {
		dst[i] = Mul(a[i], b[i])
	}
	AddMulCount(uint64(len(a)))
}

// FromBytes interprets an 8-byte little-endian value, reduced mod p.
// Like New it silently reduces non-canonical values, so it must not be
// used on untrusted wire input — use FromCanonical there.
func FromBytes(b [8]byte) Element {
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	// v < 2^64 = p + epsilon − 1 + ... reduce with at most two subtractions.
	if v >= Modulus {
		v -= Modulus
	}
	return Element(v)
}

// Bytes returns the canonical 8-byte little-endian encoding.
func (e Element) Bytes() [8]byte {
	v := uint64(e)
	return [8]byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
	}
}
