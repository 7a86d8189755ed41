package ntt

import (
	"fmt"
	"math/rand"
	"testing"

	"nocap/internal/field"
)

func randVec(n int, seed int64) []field.Element {
	rng := rand.New(rand.NewSource(seed))
	v := make([]field.Element, n)
	for i := range v {
		v[i] = field.New(rng.Uint64())
	}
	return v
}

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(v []field.Element) []field.Element {
	n := len(v)
	logN := 0
	for 1<<logN < n {
		logN++
	}
	w := field.RootOfUnity(logN)
	out := make([]field.Element, n)
	for k := 0; k < n; k++ {
		wk := field.Exp(w, uint64(k))
		var acc, wjk field.Element = 0, field.One
		for j := 0; j < n; j++ {
			acc = field.Add(acc, field.Mul(v[j], wjk))
			wjk = field.Mul(wjk, wk)
		}
		out[k] = acc
	}
	return out
}

func TestForwardMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		v := randVec(n, int64(n))
		want := naiveDFT(v)
		Forward(v)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("n=%d: Forward[%d] = %v, want %v", n, i, v[i], want[i])
			}
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 128, 1024, 1 << 14} {
		v := randVec(n, int64(n)+100)
		orig := append([]field.Element(nil), v...)
		Forward(v)
		Inverse(v)
		for i := range v {
			if v[i] != orig[i] {
				t.Fatalf("n=%d: round trip differs at %d", n, i)
			}
		}
	}
}

func TestLinearity(t *testing.T) {
	// NTT(a + c·b) == NTT(a) + c·NTT(b) — the property Reed-Solomon
	// codeword combination relies on (paper §V-A).
	n := 512
	a := randVec(n, 1)
	b := randVec(n, 2)
	c := field.New(0xdeadbeef)
	comb := make([]field.Element, n)
	for i := range comb {
		comb[i] = field.Add(a[i], field.Mul(c, b[i]))
	}
	Forward(a)
	Forward(b)
	Forward(comb)
	for i := range comb {
		want := field.Add(a[i], field.Mul(c, b[i]))
		if comb[i] != want {
			t.Fatalf("linearity fails at %d", i)
		}
	}
}

func TestFourStepMatchesForward(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{16, 4, 4},
		{64, 8, 8},
		{256, 4, 64},
		{1024, 32, 32},
		{1 << 13, 1 << 6, 1 << 7}, // non-square split
	}
	for _, c := range cases {
		v := randVec(c.n, int64(c.n))
		want := append([]field.Element(nil), v...)
		Forward(want)
		FourStep(v, c.rows, c.cols)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("n=%d rows=%d: four-step differs at %d", c.n, c.rows, i)
			}
		}
	}
}

func TestFourStepShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	FourStep(make([]field.Element, 16), 3, 5)
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	for _, n := range []int{0, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d: expected panic", n)
				}
			}()
			Forward(make([]field.Element, n))
		}()
	}
}

func TestPolyMul(t *testing.T) {
	// (1 + 2x)(3 + x + x^2) = 3 + 7x + 3x^2 + 2x^3
	a := []field.Element{field.New(1), field.New(2)}
	b := []field.Element{field.New(3), field.New(1), field.New(1)}
	got := PolyMul(a, b)
	want := []field.Element{field.New(3), field.New(7), field.New(3), field.New(2)}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coef %d = %v, want %v", i, got[i], want[i])
		}
	}
	if PolyMul(nil, a) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestPolyMulMatchesSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		la, lb := 1+rng.Intn(50), 1+rng.Intn(50)
		a, b := randVec(la, int64(trial)), randVec(lb, int64(trial)+1000)
		want := make([]field.Element, la+lb-1)
		for i := 0; i < la; i++ {
			for j := 0; j < lb; j++ {
				want[i+j] = field.Add(want[i+j], field.Mul(a[i], b[j]))
			}
		}
		got := PolyMul(a, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: coef %d differs", trial, i)
			}
		}
	}
}

func TestEvaluationSemantics(t *testing.T) {
	// Forward(v)[k] must equal poly(w^k): the property RS encoding uses.
	n := 64
	v := randVec(n, 42)
	coeffs := append([]field.Element(nil), v...)
	Forward(v)
	w := field.RootOfUnity(6)
	for _, k := range []int{0, 1, 5, 63} {
		x := field.Exp(w, uint64(k))
		var eval field.Element
		for i := len(coeffs) - 1; i >= 0; i-- {
			eval = field.Add(field.Mul(eval, x), coeffs[i])
		}
		if v[k] != eval {
			t.Fatalf("Forward[%d] != poly(w^%d)", k, k)
		}
	}
}

// BenchmarkForward covers a transform that fits L1 (2^10), the row size
// of a 2^16-constraint commitment (2^13, in L2) and one that streams from
// L3 (2^16).
func BenchmarkForward(b *testing.B) {
	for _, logN := range []int{10, 13, 16} {
		b.Run(fmt.Sprintf("2^%d", logN), func(b *testing.B) {
			Prepare(logN)
			v := randVec(1<<logN, 7)
			b.SetBytes(8 << logN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Forward(v)
			}
		})
	}
}

func BenchmarkFourStep64k(b *testing.B) {
	v := randVec(1<<16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FourStep(v, 1<<8, 1<<8)
	}
}
