package field

import (
	"math/big"
	"math/rand"
	"testing"
)

// edgeOperands are the values where the reduction's wrap corrections
// change behaviour: the ends of the range, both sides of 2^32, and the
// largest canonical values.
var edgeOperands = []uint64{0, 1, 2, epsilon - 1, epsilon, epsilon + 1, 1 << 33, 1 << 48,
	1<<63 - 1, 1 << 63, 1<<63 + 5, Modulus - epsilon, Modulus - 2, Modulus - 1}

func bigOf(hi, lo uint64) *big.Int {
	v := new(big.Int).SetUint64(hi)
	v.Lsh(v, 64)
	return v.Add(v, new(big.Int).SetUint64(lo))
}

func modP(v *big.Int) uint64 { return new(big.Int).Mod(v, bigP).Uint64() }

// TestReduce128MatchesBig covers the whole 128-bit input range, not just
// products of canonical elements: the accumulator reduces arbitrary sums.
func TestReduce128MatchesBig(t *testing.T) {
	words := append([]uint64{^uint64(0), ^uint64(0) - 1, Modulus, Modulus + 1}, edgeOperands...)
	check := func(hi, lo uint64) {
		t.Helper()
		if got, want := reduce128(hi, lo).Uint64(), modP(bigOf(hi, lo)); got != want {
			t.Fatalf("reduce128(%#x, %#x) = %#x, want %#x", hi, lo, got, want)
		}
	}
	for _, hi := range words {
		for _, lo := range words {
			check(hi, lo)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		check(rng.Uint64(), rng.Uint64())
	}
}

func TestMulFamilyMatchesBig(t *testing.T) {
	check := func(a, b, c uint64) {
		t.Helper()
		x, y, z := New(a), New(b), New(c)
		prod := new(big.Int).Mul(bigOf(0, x.Uint64()), bigOf(0, y.Uint64()))
		if got, want := Mul(x, y).Uint64(), modP(prod); got != want {
			t.Fatalf("Mul(%d, %d) = %d, want %d", x, y, got, want)
		}
		if got, want := Square(x).Uint64(), modP(new(big.Int).Mul(bigOf(0, x.Uint64()), bigOf(0, x.Uint64()))); got != want {
			t.Fatalf("Square(%d) = %d, want %d", x, got, want)
		}
		if got, want := MulAdd(x, y, z).Uint64(), modP(prod.Add(prod, bigOf(0, z.Uint64()))); got != want {
			t.Fatalf("MulAdd(%d, %d, %d) = %d, want %d", x, y, z, got, want)
		}
		for _, k := range []uint{1, 31, 32, 48, 63} {
			if got, want := MulPow2(x, k).Uint64(), modP(new(big.Int).Lsh(bigOf(0, x.Uint64()), k)); got != want {
				t.Fatalf("MulPow2(%d, %d) = %d, want %d", x, k, got, want)
			}
		}
	}
	for _, a := range edgeOperands {
		for _, b := range edgeOperands {
			for _, c := range []uint64{0, 1, Modulus - 1} {
				check(a, b, c)
			}
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5000; i++ {
		check(rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
}

// TestAccMatchesBig checks the delayed-reduction accumulator on random
// and edge sums, and at the end of its range: the state with all three
// words saturated is the largest sum any sequence of AddMuls can reach,
// and Reduce must still be exact there (the bound DESIGN.md §9 states is
// that the wrap count cannot overflow before 2^64 products).
func TestAccMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 17, 4096} {
		var acc Acc
		want := new(big.Int)
		for i := 0; i < n; i++ {
			a, b := New(rng.Uint64()), New(rng.Uint64())
			if i%5 == 0 {
				a, b = Element(Modulus-1), Element(Modulus-1) // largest product
			}
			acc = acc.AddMul(a, b)
			want.Add(want, new(big.Int).Mul(bigOf(0, a.Uint64()), bigOf(0, b.Uint64())))
		}
		if got := acc.Reduce().Uint64(); got != modP(want) {
			t.Fatalf("%d-term sum: got %d, want %d", n, got, modP(want))
		}
	}
	value := func(x Acc) *big.Int {
		v := new(big.Int).SetUint64(x.over)
		v.Lsh(v, 128)
		return v.Add(v, bigOf(x.hi, x.lo))
	}
	m := ^uint64(0)
	for _, x := range []Acc{{m, m, m}, {0, 0, m}, {m, m, 1<<32 - 1}, {0, 0, 1 << 32}, {1, 2, 1<<32 + 1}, {m, m, 0}} {
		if got, want := x.Reduce().Uint64(), modP(value(x)); got != want {
			t.Fatalf("Reduce(%+v) = %d, want %d", x, got, want)
		}
	}
	// One more product on a full 128-bit sum wraps exactly once.
	x := Acc{m, m, 0}.AddMul(Element(Modulus-1), Element(Modulus-1))
	if x.over != 1 {
		t.Fatalf("wrap count %d after overflowing the 128-bit sum, want 1", x.over)
	}
}
