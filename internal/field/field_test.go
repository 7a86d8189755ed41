package field

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

var bigP = new(big.Int).SetUint64(Modulus)

func bigMod(op func(x, y, out *big.Int), a, b uint64) uint64 {
	x := new(big.Int).SetUint64(a)
	y := new(big.Int).SetUint64(b)
	out := new(big.Int)
	op(x, y, out)
	out.Mod(out, bigP)
	return out.Uint64()
}

func TestModulusProperties(t *testing.T) {
	// p = 2^64 - 2^32 + 1.
	want := new(big.Int).Lsh(big.NewInt(1), 64)
	want.Sub(want, new(big.Int).Lsh(big.NewInt(1), 32))
	want.Add(want, big.NewInt(1))
	if want.Cmp(bigP) != 0 {
		t.Fatalf("modulus constant wrong: %v vs %v", bigP, want)
	}
	if !bigP.ProbablyPrime(32) {
		t.Fatal("modulus is not prime")
	}
}

func TestAddMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		got := Add(x, y).Uint64()
		want := bigMod(func(x, y, o *big.Int) { o.Add(x, y) }, x.Uint64(), y.Uint64())
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSubMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		got := Sub(x, y).Uint64()
		want := bigMod(func(x, y, o *big.Int) { o.Sub(x, y) }, x.Uint64(), y.Uint64())
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		got := Mul(x, y).Uint64()
		want := bigMod(func(x, y, o *big.Int) { o.Mul(x, y) }, x.Uint64(), y.Uint64())
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulEdgeCases(t *testing.T) {
	edge := []uint64{0, 1, 2, Modulus - 1, Modulus - 2, epsilon, epsilon + 1,
		1 << 32, 1<<63 + 5, ^uint64(0) % Modulus}
	for _, a := range edge {
		for _, b := range edge {
			got := Mul(New(a), New(b)).Uint64()
			want := bigMod(func(x, y, o *big.Int) { o.Mul(x, y) }, New(a).Uint64(), New(b).Uint64())
			if got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestNegAndDouble(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		return Add(x, Neg(x)) == Zero && Double(x) == Add(x, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Neg(Zero) != Zero {
		t.Fatal("Neg(0) != 0")
	}
}

func TestInv(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		if x == Zero {
			return Inv(x) == Zero
		}
		return Mul(x, Inv(x)) == One
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(One, Zero)
}

func TestExp(t *testing.T) {
	// Fermat: a^(p-1) = 1 for a != 0.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := New(rng.Uint64())
		if a == Zero {
			continue
		}
		if Exp(a, Modulus-1) != One {
			t.Fatalf("fermat failed for %v", a)
		}
	}
	if Exp(New(3), 0) != One || Exp(New(3), 1) != New(3) {
		t.Fatal("exp base cases wrong")
	}
	if Exp(New(3), 5) != New(243) {
		t.Fatal("3^5 != 243")
	}
}

func TestBatchInv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vs := make([]Element, 100)
	want := make([]Element, 100)
	for i := range vs {
		if i%7 == 0 {
			vs[i] = Zero
		} else {
			vs[i] = New(rng.Uint64())
		}
		want[i] = Inv(vs[i])
	}
	BatchInv(vs)
	for i := range vs {
		if vs[i] != want[i] {
			t.Fatalf("BatchInv[%d] = %v, want %v", i, vs[i], want[i])
		}
	}
	BatchInv(nil) // must not panic
}

func TestRootOfUnity(t *testing.T) {
	for logN := 0; logN <= 20; logN++ {
		w := RootOfUnity(logN)
		n := uint64(1) << logN
		if Exp(w, n) != One {
			t.Fatalf("w^(2^%d) != 1", logN)
		}
		if logN > 0 && Exp(w, n/2) == One {
			t.Fatalf("root of order 2^%d is not primitive", logN)
		}
	}
	w32 := RootOfUnity(TwoAdicity)
	if Exp(w32, 1<<31) == One {
		t.Fatal("2^32 root not primitive")
	}
}

func TestRootOfUnityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for too-large root")
		}
	}()
	RootOfUnity(33)
}

func TestGeneratorOrder(t *testing.T) {
	// 7 generates GF(p)*: its order is not a proper divisor of p-1.
	// p-1 = 2^32 * 3 * 5 * 17 * 257 * 65537.
	factors := []uint64{2, 3, 5, 17, 257, 65537}
	order := Modulus - 1
	prod := uint64(1)
	for _, f := range factors[1:] {
		prod *= f
	}
	if prod<<32 != order {
		t.Fatalf("factorization of p-1 wrong")
	}
	for _, f := range factors {
		if Exp(Element(Generator), order/f) == One {
			t.Fatalf("generator has order dividing (p-1)/%d", f)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		return FromBytes(x.Bytes()) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInnerProductAndVecOps(t *testing.T) {
	a := []Element{New(1), New(2), New(3)}
	b := []Element{New(4), New(5), New(6)}
	if InnerProduct(a, b) != New(32) {
		t.Fatal("inner product wrong")
	}
	dst := make([]Element, 3)
	VecAdd(dst, a, b)
	if dst[0] != New(5) || dst[2] != New(9) {
		t.Fatal("vecadd wrong")
	}
	VecMul(dst, a, b)
	if dst[1] != New(10) {
		t.Fatal("vecmul wrong")
	}
	copy(dst, a)
	VecScaleAdd(dst, New(2), b)
	if dst[0] != New(9) || dst[1] != New(12) {
		t.Fatal("vecscaleadd wrong")
	}
}

func TestVecOpsPanicOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"inner": func() { InnerProduct(make([]Element, 2), make([]Element, 3)) },
		"add":   func() { VecAdd(make([]Element, 2), make([]Element, 2), make([]Element, 3)) },
		"mul":   func() { VecMul(make([]Element, 3), make([]Element, 2), make([]Element, 2)) },
		"sadd":  func() { VecScaleAdd(make([]Element, 2), One, make([]Element, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMulCount pins the counter's contract: Mul and Square never touch
// it (they must stay inlinable), loops credit their exact multiply count
// once per call through AddMulCount, and a disabled counter stays at 0.
func TestMulCount(t *testing.T) {
	EnableMulCount(true)
	defer EnableMulCount(false)
	Mul(New(3), New(4))
	Square(New(5))
	if got := MulCount(); got != 0 {
		t.Fatalf("Mul/Square credited %d multiplies; the per-multiply counter is gone", got)
	}
	a, b := []Element{1, 2, 3}, []Element{4, 5, 6}
	dst := make([]Element, 3)
	InnerProduct(a, b)     // 3
	VecMul(dst, a, b)      // 3
	VecScaleAdd(dst, 7, a) // 3
	AddMulCount(10)
	if got := MulCount(); got != 19 {
		t.Fatalf("MulCount = %d, want 19", got)
	}
	EnableMulCount(false)
	InnerProduct(a, b)
	AddMulCount(5)
	if got := MulCount(); got != 0 {
		t.Fatalf("counter not reset/disabled: %d", got)
	}
}

func TestFieldAxioms(t *testing.T) {
	// Associativity, commutativity, distributivity on random triples.
	f := func(a, b, c uint64) bool {
		x, y, z := New(a), New(b), New(c)
		if Add(Add(x, y), z) != Add(x, Add(y, z)) {
			return false
		}
		if Mul(Mul(x, y), z) != Mul(x, Mul(y, z)) {
			return false
		}
		if Add(x, y) != Add(y, x) || Mul(x, y) != Mul(y, x) {
			return false
		}
		return Mul(x, Add(y, z)) == Add(Mul(x, y), Mul(x, z))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := New(0x123456789abcdef), New(0xfedcba987654321)
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
	sinkElem = x // without a live result the inlined multiply chain is dead code
}

func benchVec(n int) (a, b []Element) {
	rng := rand.New(rand.NewSource(9))
	a, b = make([]Element, n), make([]Element, n)
	for i := range a {
		a[i], b[i] = New(rng.Uint64()), New(rng.Uint64())
	}
	return a, b
}

func BenchmarkVecScaleAdd(b *testing.B) {
	dst, a := benchVec(1 << 12)
	b.SetBytes(8 << 12)
	for i := 0; i < b.N; i++ {
		VecScaleAdd(dst, a[i&0xfff], a)
	}
}

var sinkElem Element

func BenchmarkInnerProduct(b *testing.B) {
	x, y := benchVec(1 << 12)
	b.SetBytes(8 << 12)
	for i := 0; i < b.N; i++ {
		sinkElem = InnerProduct(x, y)
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := New(0x123456789abcdef), New(0xfedcba987654321)
	for i := 0; i < b.N; i++ {
		x = Add(x, y)
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	x := New(0x123456789abcdef)
	for i := 0; i < b.N; i++ {
		x = Inv(x)
	}
	_ = x
}
