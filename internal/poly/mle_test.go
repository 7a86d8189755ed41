package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nocap/internal/field"
)

func randElems(n int, seed int64) []field.Element {
	rng := rand.New(rand.NewSource(seed))
	v := make([]field.Element, n)
	for i := range v {
		v[i] = field.New(rng.Uint64())
	}
	return v
}

func TestMLEBasics(t *testing.T) {
	m := NewMLE(randElems(8, 1))
	if m.NumVars() != 3 || m.Len() != 8 {
		t.Fatalf("vars=%d len=%d", m.NumVars(), m.Len())
	}
	c := m.Clone()
	c.Evals()[0] = field.New(99)
	if m.At(0) == field.New(99) {
		t.Fatal("clone aliases original")
	}
}

func TestNewMLEPanics(t *testing.T) {
	for _, n := range []int{0, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d: expected panic", n)
				}
			}()
			NewMLE(make([]field.Element, n))
		}()
	}
}

func TestNewMLEPadded(t *testing.T) {
	m := NewMLEPadded(randElems(5, 2), 16)
	if m.Len() != 16 {
		t.Fatalf("len = %d, want 16", m.Len())
	}
	if m.At(5) != field.Zero || m.At(15) != field.Zero {
		t.Fatal("padding not zero")
	}
	if NewMLEPadded(randElems(9, 3), 0).Len() != 16 {
		t.Fatal("rounding up to power of two failed")
	}
}

func TestEvaluateOnHypercube(t *testing.T) {
	// MLE must agree with the table on boolean points (MSB-first order).
	evals := randElems(16, 4)
	m := NewMLE(evals)
	for i := 0; i < 16; i++ {
		pt := make([]field.Element, 4)
		for k := 0; k < 4; k++ {
			if i&(1<<(3-k)) != 0 { // variable 0 = MSB
				pt[k] = field.One
			}
		}
		if got := m.Evaluate(pt); got != evals[i] {
			t.Fatalf("Evaluate at vertex %d = %v, want %v", i, got, evals[i])
		}
	}
}

func TestFoldMatchesEvaluate(t *testing.T) {
	evals := randElems(32, 5)
	r := randElems(5, 6)
	m := NewMLE(evals)
	want := m.Evaluate(r)
	c := m.Clone()
	for _, ri := range r {
		c.Fold(ri)
	}
	if c.At(0) != want {
		t.Fatal("sequential folds disagree with Evaluate")
	}
}

func TestFoldListing1Semantics(t *testing.T) {
	// Fold must compute A[b]·(1−r) + A[b+s]·r, s = n/2 (paper Listing 1).
	evals := randElems(8, 7)
	r := field.New(12345)
	m := NewMLE(append([]field.Element(nil), evals...))
	m.Fold(r)
	for b := 0; b < 4; b++ {
		want := field.Add(
			field.Mul(evals[b], field.Sub(field.One, r)),
			field.Mul(evals[b+4], r))
		if m.At(b) != want {
			t.Fatalf("fold[%d] = %v, want %v", b, m.At(b), want)
		}
	}
}

func TestFoldZeroVarsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLE(randElems(1, 8)).Fold(field.One)
}

func TestEqTable(t *testing.T) {
	r := randElems(4, 9)
	table := EqTable(r)
	if len(table) != 16 {
		t.Fatalf("table len %d", len(table))
	}
	// table[i] must equal eq(r, bits(i)) with MSB-first pairing.
	for i := range table {
		pt := make([]field.Element, 4)
		for k := 0; k < 4; k++ {
			if i&(1<<(3-k)) != 0 {
				pt[k] = field.One
			}
		}
		if got := EqEval(r, pt); got != table[i] {
			t.Fatalf("EqTable[%d] = %v, want %v", i, table[i], got)
		}
	}
	// Σ_i eq(r, i) = 1 (partition of unity).
	var sum field.Element
	for _, v := range table {
		sum = field.Add(sum, v)
	}
	if sum != field.One {
		t.Fatalf("eq table sums to %v, want 1", sum)
	}
}

func TestEqTableIsMLEBasis(t *testing.T) {
	// f̃(r) = Σ_i eq(r,i)·f(i).
	evals := randElems(32, 10)
	r := randElems(5, 11)
	m := NewMLE(evals)
	table := EqTable(r)
	if got, want := field.InnerProduct(table, evals), m.Evaluate(r); got != want {
		t.Fatalf("basis identity fails: %v vs %v", got, want)
	}
}

func TestEqEvalSymmetry(t *testing.T) {
	f := func(a0, a1, b0, b1 uint64) bool {
		a := []field.Element{field.New(a0), field.New(a1)}
		b := []field.Element{field.New(b0), field.New(b1)}
		return EqEval(a, b) == EqEval(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEqEvalOnBooleans(t *testing.T) {
	zero, one := field.Zero, field.One
	pts := [][]field.Element{{zero, zero}, {zero, one}, {one, zero}, {one, one}}
	for i, a := range pts {
		for j, b := range pts {
			got := EqEval(a, b)
			want := field.Zero
			if i == j {
				want = field.One
			}
			if got != want {
				t.Fatalf("eq(%d,%d) = %v", i, j, got)
			}
		}
	}
}

func TestInterpolateEval(t *testing.T) {
	// q(x) = 3 + 2x + x^3 on domain {0..3}, check at arbitrary points.
	coeffs := []field.Element{field.New(3), field.New(2), field.Zero, field.One}
	vals := make([]field.Element, 4)
	for i := range vals {
		vals[i] = UnivariateEval(coeffs, field.New(uint64(i)))
	}
	for _, x := range []field.Element{field.New(0), field.New(2), field.New(17), field.New(1 << 40)} {
		if got, want := InterpolateEval(vals, x), UnivariateEval(coeffs, x); got != want {
			t.Fatalf("interp(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestInterpolateEvalRandomDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for d := 0; d <= 6; d++ {
		coeffs := randElems(d+1, int64(d)+50)
		vals := make([]field.Element, d+1)
		for i := range vals {
			vals[i] = UnivariateEval(coeffs, field.New(uint64(i)))
		}
		x := field.New(rng.Uint64())
		if got, want := InterpolateEval(vals, x), UnivariateEval(coeffs, x); got != want {
			t.Fatalf("degree %d interpolation wrong", d)
		}
	}
}

// interpolateEvalReference is InterpolateEval as it was before its
// denominators were memoised: fresh prefix/suffix/factorial slices and
// one Div per term.
func interpolateEvalReference(vals []field.Element, x field.Element) field.Element {
	d := len(vals) - 1
	if x.Uint64() <= uint64(d) {
		return vals[x.Uint64()]
	}
	n := d + 1
	prefix := make([]field.Element, n)
	suffix := make([]field.Element, n)
	prefix[0] = field.One
	for i := 1; i < n; i++ {
		prefix[i] = field.Mul(prefix[i-1], field.Sub(x, field.New(uint64(i-1))))
	}
	suffix[n-1] = field.One
	for i := n - 2; i >= 0; i-- {
		suffix[i] = field.Mul(suffix[i+1], field.Sub(x, field.New(uint64(i+1))))
	}
	fact := make([]field.Element, n)
	fact[0] = field.One
	for i := 1; i < n; i++ {
		fact[i] = field.Mul(fact[i-1], field.New(uint64(i)))
	}
	var acc field.Element
	for i := 0; i < n; i++ {
		denom := field.Mul(fact[i], fact[d-i])
		if (d-i)%2 == 1 {
			denom = field.Neg(denom)
		}
		term := field.Mul(vals[i], field.Mul(prefix[i], suffix[i]))
		acc = field.Add(acc, field.Div(term, denom))
	}
	return acc
}

// TestInterpolateEvalMatchesReference is the table test of the memoised
// interpolation against the old formula: every degree 0…8 (and one past
// the memo), at every domain point and at points outside the domain —
// just past it, far from it, and at the top of the field.
func TestInterpolateEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, d := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, interpMaxDegree + 1} {
		vals := randElems(d+1, int64(d)+70)
		xs := []field.Element{field.New(uint64(d + 1)), field.New(uint64(d + 2)), field.New(1 << 40),
			field.Neg(field.One), field.New(rng.Uint64())}
		for i := 0; i <= d; i++ {
			xs = append(xs, field.New(uint64(i)))
		}
		for _, x := range xs {
			if got, want := InterpolateEval(vals, x), interpolateEvalReference(vals, x); got != want {
				t.Fatalf("d=%d x=%v: got %v, want %v", d, x, got, want)
			}
		}
	}
}

func TestInterpolateEvalDoesNotAllocate(t *testing.T) {
	vals := randElems(4, 71)
	x := field.New(1 << 40)
	if n := testing.AllocsPerRun(100, func() { InterpolateEval(vals, x) }); n != 0 {
		t.Fatalf("InterpolateEval allocates %v times per call", n)
	}
}

func TestEvaluateDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLE(randElems(8, 14)).Evaluate(randElems(2, 15))
}

func BenchmarkFold1M(b *testing.B) {
	m := NewMLE(randElems(1<<20, 16))
	r := field.New(777)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		b.StartTimer()
		c.Fold(r)
		b.StopTimer()
	}
}

func BenchmarkEqTable20(b *testing.B) {
	r := randElems(20, 17)
	for i := 0; i < b.N; i++ {
		EqTable(r)
	}
}
