package field

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"nocap/internal/cpu"
)

// reduceCase reports which wrap corrections reduce128(hi, lo) takes: a
// borrow when lo < hi>>32, a carry out of t + h0·ε.
func reduceCase(hi, lo uint64) (borrow, carry bool) {
	t, b := bits.Sub64(lo, hi>>32, 0)
	t -= epsilon & -b
	_, c := bits.Add64(t, (hi&epsilon)*epsilon, 0)
	return b == 1, c == 1
}

// TestLaneOps8MatchesBig checks the 8-lane mul, add, sub and ·2^48
// against math/big on every pair of corner operands — 0, 1, p−1, 2^32−1,
// 2^32, 2^63 and the edge set of the scalar tests — plus products that
// take each of reduce128's wrap corrections (a borrow only, a carry only,
// both), and random operands; the corners land in every lane position.
func TestLaneOps8MatchesBig(t *testing.T) {
	if !vec8() {
		t.Skip("no AVX-512F datapath on this machine")
	}
	corners := append([]uint64{0, 1, Modulus - 1, 1<<32 - 1, 1 << 32, 1 << 63}, edgeOperands...)
	pairs := [][2]uint64{
		{1 << 48, 1 << 48},                       // borrow: lo = 0 < hi>>32 = 1
		{1 << 32, 0xfffffffeffffffff},            // carry out of t + h0·ε
		{1 << 48, 0xffffffff00000000},            // both
		{0xfffffffe00000000, 0xfffffffe00000000}, // carry, large operands
	}
	var borrow, carry, both bool
	for _, p := range pairs {
		b, c := reduceCase(bits.Mul64(p[0], p[1]))
		borrow, carry, both = borrow || b && !c, carry || c && !b, both || b && c
	}
	if !borrow || !carry || !both {
		t.Fatalf("witness pairs miss a wrap case: borrow-only %v, carry-only %v, both %v", borrow, carry, both)
	}
	for _, a := range corners {
		for _, b := range corners {
			pairs = append(pairs, [2]uint64{a, b})
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4000; i++ {
		pairs = append(pairs, [2]uint64{rng.Uint64() % Modulus, rng.Uint64() % Modulus})
	}
	for shift := 0; shift < 8; shift++ { // every corner in every lane
		for i := shift; i < len(pairs); i += 8 {
			var a, b [8]Element
			var out [4][8]Element
			for k := 0; k < 8; k++ {
				p := pairs[(i+k)%len(pairs)]
				a[k], b[k] = Element(p[0]), Element(p[1])
			}
			laneOps8(&a, &b, &out)
			for k := 0; k < 8; k++ {
				x, y := bigOf(0, uint64(a[k])), bigOf(0, uint64(b[k]))
				want := [4]uint64{
					modP(new(big.Int).Mul(x, y)),
					modP(new(big.Int).Add(x, y)),
					modP(new(big.Int).Sub(new(big.Int).Add(x, bigP), y)),
					modP(new(big.Int).Lsh(x, 48)),
				}
				for op, name := range []string{"mul", "add", "sub", "mulpow2(48)"} {
					if got := uint64(out[op][k]); got != want[op] {
						t.Fatalf("lane %d %s(%#x, %#x) = %#x, want %#x", k, name, uint64(a[k]), uint64(b[k]), got, want[op])
					}
				}
			}
		}
	}
}

// vecOperands returns n elements, random with the reduction's edge
// operands sprinkled in.
func vecOperands(rng *rand.Rand, n int) []Element {
	v := make([]Element, n)
	for i := range v {
		if x := rng.Uint64(); x%8 == 0 {
			v[i] = Element(edgeOperands[(x>>3)%uint64(len(edgeOperands))])
		} else {
			v[i] = New(x)
		}
	}
	return v
}

// eachPath runs f on every datapath the machine has and requires every
// path to return what the pure-Go loop (the last, Scalar) returns.
func eachPath[T comparable](t *testing.T, what string, f func() T) {
	t.Helper()
	var results []T
	var levels []cpu.Level
	cpu.Each(func(l cpu.Level) {
		results, levels = append(results, f()), append(levels, l)
	})
	want := results[len(results)-1]
	for i, got := range results {
		if got != want {
			t.Fatalf("%s: %v path = %v, pure Go = %v", what, levels[i], got, want)
		}
	}
}

// TestKernelsMatchGoLoops compares every slice kernel's vector path with
// its Go loop over lengths that do and do not fill whole lanes, and the
// NTT passes over every block length of both loops (l = 4 packs two
// blocks per register).
func TestKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 41; n++ {
		x, y := vecOperands(rng, n), vecOperands(rng, n)
		r := New(rng.Uint64())
		eachPath(t, fmt.Sprintf("Fold n=%d", n), func() string {
			z := append([]Element(nil), x...)
			Fold(z, y, r)
			return fmt.Sprint(z)
		})
		eachPath(t, fmt.Sprintf("EqSplit n=%d", n), func() string {
			lo, hi := append([]Element(nil), x...), make([]Element, n)
			EqSplit(lo, hi, r)
			return fmt.Sprint(lo, hi)
		})
		a := make([][]Element, 8)
		for k := range a {
			a[k] = vecOperands(rng, n)
		}
		eachPath(t, fmt.Sprintf("CubicSums n=%d", n), func() [4]Element {
			return CubicSums(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
		})
		eachPath(t, fmt.Sprintf("ProductSums n=%d", n), func() [3]Element {
			return ProductSums(a[0], a[1], a[2], a[3])
		})
	}
	for _, l := range []int{1, 2, 4, 8, 16, 32} {
		for _, blocks := range []int{0, 1, 2, 4} {
			v, tw := vecOperands(rng, 4*l*blocks), vecOperands(rng, 3*l)
			eachPath(t, fmt.Sprintf("Radix4Pass l=%d n=%d", l, len(v)), func() string {
				z := append([]Element(nil), v...)
				Radix4Pass(z, l, tw)
				return fmt.Sprint(z)
			})
			eachPath(t, fmt.Sprintf("Radix2Pass l=%d n=%d", l, len(v)), func() string {
				z := append([]Element(nil), v...)
				Radix2Pass(z, l, tw[:l])
				return fmt.Sprint(z)
			})
		}
	}
}
