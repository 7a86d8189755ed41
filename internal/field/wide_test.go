package field

import (
	"math/big"
	"math/rand"
	"testing"
)

func randBig(rng *rand.Rand) *big.Int {
	b := make([]byte, 32)
	rng.Read(b)
	return new(big.Int).Mod(new(big.Int).SetBytes(b), wideModulus)
}

func TestWideRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v := randBig(rng)
		if got := NewWide(v).Big(); got.Cmp(v) != 0 {
			t.Fatalf("round trip: %v -> %v", v, got)
		}
	}
}

func TestWideMulMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := randBig(rng), randBig(rng)
		want := new(big.Int).Mul(a, b)
		want.Mod(want, wideModulus)
		got := WideMul(NewWide(a), NewWide(b)).Big()
		if got.Cmp(want) != 0 {
			t.Fatalf("mul %v * %v = %v, want %v", a, b, got, want)
		}
	}
}

func TestWideMulEdgeCases(t *testing.T) {
	pm1 := new(big.Int).Sub(wideModulus, big.NewInt(1))
	edges := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), pm1}
	for _, a := range edges {
		for _, b := range edges {
			want := new(big.Int).Mul(a, b)
			want.Mod(want, wideModulus)
			if got := WideMul(NewWide(a), NewWide(b)).Big(); got.Cmp(want) != 0 {
				t.Fatalf("mul(%v,%v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestWideAddMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a, b := randBig(rng), randBig(rng)
		want := new(big.Int).Add(a, b)
		want.Mod(want, wideModulus)
		if got := WideAdd(NewWide(a), NewWide(b)).Big(); got.Cmp(want) != 0 {
			t.Fatalf("add mismatch")
		}
	}
}

func TestWideOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := randBig(rng)
	if got := WideMul(NewWide(v), WideOne()).Big(); got.Cmp(v) != 0 {
		t.Fatal("1 is not the multiplicative identity")
	}
}

// TestWideMulCount pins the same contract for the 256-bit field: WideMul
// does not touch the counter, and WideMulCost is the 2·4²+4 constant a
// caller credits per multiply.
func TestWideMulCount(t *testing.T) {
	EnableMulCount(true)
	defer EnableMulCount(false)
	WideMul(wideOneM, wideOneM)
	if got := MulCount(); got != 0 {
		t.Fatalf("WideMul credited %d multiplies itself", got)
	}
	AddMulCount(WideMulCost)
	if got := MulCount(); got != 36 {
		t.Fatalf("wide mul cost %d, want 36 (2·4²+4)", got)
	}
}

// BenchmarkWideMul vs BenchmarkMul measures the Goldilocks ablation
// (§VIII-C: narrow field → 1.7× CPU speedup) on this host.
func BenchmarkWideMul(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x, y := NewWide(randBig(rng)), NewWide(randBig(rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = WideMul(x, y)
	}
	_ = x
}
