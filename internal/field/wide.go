package field

import (
	"math/big"
	"math/bits"
)

// Wide is a 256-bit prime-field element in Montgomery form — the kind of
// field hash-based ZKPs used before the Goldilocks-64 switch (the
// paper's §VIII-C ablation: "switching to the narrower field improves
// performance by 1.7×"). The modulus is the BN254 scalar field, a
// typical NTT-friendly 256-bit choice. Arithmetic is 4-limb Montgomery
// CIOS, the standard software implementation whose 64-bit multiply count
// (2·4²+4 = 36 per modmul vs Goldilocks' 1) drives the ablation.
//
// Wide exists for measurement and comparison; the protocol stack runs
// entirely on Element.
type Wide [4]uint64

// WideMulCost is the number of 64-bit multiplies in one WideMul.
const WideMulCost = 2*4*4 + 4

// wideModulus is the BN254 scalar field prime.
var wideModulus = mustBig("21888242871839275222246405745257275088548364400416034343698204186575808495617")

// Montgomery constants, derived at init (R = 2^256).
var (
	wideP    [4]uint64 // modulus limbs
	wideInv  uint64    // -p^{-1} mod 2^64
	wideR2   Wide      // R² mod p (to enter Montgomery form)
	wideOneM Wide      // R mod p (1 in Montgomery form)
)

func mustBig(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("field: bad constant")
	}
	return v
}

func bigToLimbs(v *big.Int) [4]uint64 {
	var out [4]uint64
	b := v.Bits()
	for i := 0; i < len(b) && i < 4; i++ {
		out[i] = uint64(b[i])
	}
	return out
}

func init() {
	wideP = bigToLimbs(wideModulus)
	// wideInv = -p^{-1} mod 2^64 via Newton iteration.
	inv := wideP[0] // p is odd
	for i := 0; i < 5; i++ {
		inv *= 2 - wideP[0]*inv
	}
	wideInv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	r.Mod(r, wideModulus)
	wideOneM = Wide(bigToLimbs(r))
	r2 := new(big.Int).Lsh(big.NewInt(1), 512)
	r2.Mod(r2, wideModulus)
	wideR2 = Wide(bigToLimbs(r2))
}

// NewWide converts a big.Int (reduced mod p) into Montgomery form.
func NewWide(v *big.Int) Wide {
	t := new(big.Int).Mod(v, wideModulus)
	return WideMul(Wide(bigToLimbs(t)), wideR2)
}

// WideOne returns 1.
func WideOne() Wide { return wideOneM }

// Big converts back out of Montgomery form.
func (w Wide) Big() *big.Int {
	std := WideMul(w, Wide{1}) // multiply by 1 (non-Montgomery) = REDC
	out := new(big.Int)
	for i := 3; i >= 0; i-- {
		out.Lsh(out, 64)
		out.Add(out, new(big.Int).SetUint64(std[i]))
	}
	return out
}

// wideGTE reports a ≥ p.
func wideGTE(a [4]uint64) bool {
	for i := 3; i >= 0; i-- {
		if a[i] > wideP[i] {
			return true
		}
		if a[i] < wideP[i] {
			return false
		}
	}
	return true
}

// wideSubP subtracts p in place.
func wideSubP(a *[4]uint64) {
	var borrow uint64
	for i := 0; i < 4; i++ {
		a[i], borrow = bits.Sub64(a[i], wideP[i], borrow)
	}
}

// WideAdd returns a+b mod p.
func WideAdd(a, b Wide) Wide {
	var out [4]uint64
	var carry uint64
	for i := 0; i < 4; i++ {
		out[i], carry = bits.Add64(a[i], b[i], carry)
	}
	if carry == 1 || wideGTE(out) {
		wideSubP(&out)
	}
	return Wide(out)
}

// WideMul returns a·b mod p (Montgomery CIOS). Each call performs
// 2·4²+4 = 36 64-bit multiplies — the critical-operation count behind
// the paper's field ablation. WideMulCost is that constant for callers
// that credit the §III counter (AddMulCount) per batch of multiplies.
func WideMul(a, b Wide) Wide {
	var t [5]uint64 // t[4] is the running overflow
	for i := 0; i < 4; i++ {
		// t += a[i] * b
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(a[i], b[j])
			var c uint64
			t[j], c = bits.Add64(t[j], lo, 0)
			hi += c
			t[j], c = bits.Add64(t[j], carry, 0)
			hi += c
			carry = hi
		}
		t4, c4 := bits.Add64(t[4], carry, 0)
		t[4] = t4
		overflow := c4

		// m = t[0] * (-p^{-1}) mod 2^64; t += m*p; t >>= 64
		m := t[0] * wideInv
		hi, lo := bits.Mul64(m, wideP[0])
		_, c := bits.Add64(t[0], lo, 0)
		carry = hi + c
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(m, wideP[j])
			var c1, c2 uint64
			t[j-1], c1 = bits.Add64(t[j], lo, 0)
			hi += c1
			t[j-1], c2 = bits.Add64(t[j-1], carry, 0)
			hi += c2
			carry = hi
		}
		t[3], c = bits.Add64(t[4], carry, 0)
		t[4] = overflow + c
	}
	out := [4]uint64{t[0], t[1], t[2], t[3]}
	if t[4] != 0 || wideGTE(out) {
		wideSubP(&out)
	}
	return Wide(out)
}
