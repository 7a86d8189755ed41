package r1cs

import (
	"context"
	"math/rand"
	"testing"

	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/poly"
)

// buildToy returns the circuit of paper Fig. 2:
// f(x,w) = x0 + w0 + x1*w1 + x1*w1*w2, asserted equal to a public output.
func buildToy(x0, x1, w0, w1, w2 uint64) (*Instance, []field.Element, []field.Element) {
	b := NewBuilder()
	vx0 := b.Public(field.New(x0))
	vx1 := b.Public(field.New(x1))
	vw0 := b.Secret(field.New(w0))
	vw1 := b.Secret(field.New(w1))
	vw2 := b.Secret(field.New(w2))
	t1 := b.Mul(FromVar(vx1), FromVar(vw1))         // x1*w1
	t2 := b.Mul(FromVar(t1), FromVar(vw2))          // x1*w1*w2
	sum := AddLC(AddLC(FromVar(vx0), FromVar(vw0)), // x0+w0
		AddLC(FromVar(t1), FromVar(t2))) // + t1 + t2
	expected := field.Add(field.Add(field.New(x0), field.New(w0)),
		field.Add(field.Mul(field.New(x1), field.New(w1)),
			field.Mul(field.Mul(field.New(x1), field.New(w1)), field.New(w2))))
	out := b.Public(expected)
	b.AssertEq(sum, FromVar(out))
	return b.Build()
}

func TestToyCircuitSatisfied(t *testing.T) {
	inst, io, w := buildToy(3, 5, 7, 11, 13)
	z := inst.AssembleZ(io, w)
	if ok, i := inst.Satisfied(z); !ok {
		t.Fatalf("constraint %d violated", i)
	}
}

func TestTamperedWitnessRejected(t *testing.T) {
	inst, io, w := buildToy(3, 5, 7, 11, 13)
	w[0] = field.Add(w[0], field.One)
	z := inst.AssembleZ(io, w)
	if ok, _ := inst.Satisfied(z); ok {
		t.Fatal("tampered witness accepted")
	}
}

func TestTamperedPublicRejected(t *testing.T) {
	inst, io, w := buildToy(3, 5, 7, 11, 13)
	io[0] = field.Add(io[0], field.One)
	z := inst.AssembleZ(io, w)
	if ok, _ := inst.Satisfied(z); ok {
		t.Fatal("tampered public input accepted")
	}
}

func TestPaddingShape(t *testing.T) {
	inst, _, _ := buildToy(1, 2, 3, 4, 5)
	if n := inst.NumVars(); n&(n-1) != 0 {
		t.Fatal("vars not power of two")
	}
	if m := inst.NumConstraints(); m&(m-1) != 0 {
		t.Fatal("constraints not power of two")
	}
	if inst.NumPublic != 3 {
		t.Fatalf("NumPublic = %d", inst.NumPublic)
	}
}

func TestSparseMatrixOps(t *testing.T) {
	m := NewSparseMatrix(4, 4)
	m.Add(0, 0, field.New(2))
	m.Add(0, 0, field.New(3)) // accumulate
	m.Add(1, 3, field.New(5))
	m.Add(2, 2, field.Zero) // dropped
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	x := []field.Element{field.New(1), field.New(1), field.New(1), field.New(2)}
	y := m.Mul(x)
	if y[0] != field.New(5) || y[1] != field.New(10) || y[2] != field.Zero {
		t.Fatalf("SpMV wrong: %v", y)
	}
	if m.Bandwidth() != 2 {
		t.Fatalf("bandwidth = %d", m.Bandwidth())
	}
}

func TestSparseMatrixMLEMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewSparseMatrix(8, 16)
	dense := make([]field.Element, 8*16)
	for k := 0; k < 20; k++ {
		r, c := rng.Intn(8), rng.Intn(16)
		v := field.New(rng.Uint64())
		m.Add(r, c, v)
		dense[r*16+c] = field.Add(dense[r*16+c], v)
	}
	rx := []field.Element{field.New(rng.Uint64()), field.New(rng.Uint64()), field.New(rng.Uint64())}
	ry := make([]field.Element, 4)
	for i := range ry {
		ry[i] = field.New(rng.Uint64())
	}
	got := mleEvalWithTables(m, poly.EqTable(rx), poly.EqTable(ry))
	// Dense reference: MLE over 7 variables (3 row + 4 col, row bits high).
	want := poly.NewMLE(dense).Evaluate(append(append([]field.Element(nil), rx...), ry...))
	if got != want {
		t.Fatalf("sparse MLE %v != dense %v", got, want)
	}
}

func TestGadgetXor(t *testing.T) {
	for _, c := range []struct{ a, b, want uint64 }{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		b := NewBuilder()
		x := b.Secret(field.New(c.a))
		y := b.Secret(field.New(c.b))
		z := b.Xor(x, y)
		if b.Value(z) != field.New(c.want) {
			t.Fatalf("xor(%d,%d) = %v", c.a, c.b, b.Value(z))
		}
		inst, io, w := b.Build()
		if ok, i := inst.Satisfied(inst.AssembleZ(io, w)); !ok {
			t.Fatalf("xor constraints violated at %d", i)
		}
	}
}

func TestGadgetBits(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(field.New(0b101101))
	bits := b.ToBits(FromVar(x), 8)
	wantBits := []uint64{1, 0, 1, 1, 0, 1, 0, 0}
	for i, bit := range bits {
		if b.Value(bit) != field.New(wantBits[i]) {
			t.Fatalf("bit %d = %v", i, b.Value(bit))
		}
	}
	// Recompose.
	y := b.Secret(b.Eval(FromBits(bits)))
	b.AssertEq(FromBits(bits), FromVar(y))
	if b.Value(y) != field.New(0b101101) {
		t.Fatal("recompose wrong")
	}
	inst, io, w := b.Build()
	if ok, i := inst.Satisfied(inst.AssembleZ(io, w)); !ok {
		t.Fatalf("bit constraints violated at %d", i)
	}
}

func TestToBitsRejectsOverflow(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(field.New(256))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 256 in 8 bits")
		}
	}()
	b.ToBits(FromVar(x), 8)
}

func TestGadgetSelect(t *testing.T) {
	for _, cond := range []uint64{0, 1} {
		b := NewBuilder()
		c := b.Secret(field.New(cond))
		b.AssertBool(c)
		out := b.Select(c, Const(field.New(10)), Const(field.New(20)))
		want := field.New(20)
		if cond == 1 {
			want = field.New(10)
		}
		if b.Value(out) != want {
			t.Fatalf("select(%d) = %v", cond, b.Value(out))
		}
		inst, io, w := b.Build()
		if ok, _ := inst.Satisfied(inst.AssembleZ(io, w)); !ok {
			t.Fatal("select constraints violated")
		}
	}
}

func TestGadgetIsZero(t *testing.T) {
	for _, v := range []uint64{0, 1, 12345} {
		b := NewBuilder()
		x := b.Secret(field.New(v))
		z := b.IsZero(FromVar(x))
		want := field.Zero
		if v == 0 {
			want = field.One
		}
		if b.Value(z) != want {
			t.Fatalf("iszero(%d) = %v", v, b.Value(z))
		}
		inst, io, w := b.Build()
		if ok, _ := inst.Satisfied(inst.AssembleZ(io, w)); !ok {
			t.Fatal("iszero constraints violated")
		}
	}
}

func TestGadgetLessThan(t *testing.T) {
	cases := []struct {
		x, y uint64
		want uint64
	}{{3, 5, 1}, {5, 3, 0}, {7, 7, 0}, {0, 1, 1}, {1000, 999, 0}}
	for _, c := range cases {
		b := NewBuilder()
		x := b.Secret(field.New(c.x))
		y := b.Secret(field.New(c.y))
		lt := b.LessThan(FromVar(x), FromVar(y), 16)
		if b.Value(lt) != field.New(c.want) {
			t.Fatalf("%d < %d = %v, want %d", c.x, c.y, b.Value(lt), c.want)
		}
		inst, io, w := b.Build()
		if ok, _ := inst.Satisfied(inst.AssembleZ(io, w)); !ok {
			t.Fatal("lessthan constraints violated")
		}
	}
}

func TestGadgetAdd32(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(field.New(0xFFFFFFFF))
	y := b.Secret(field.New(2))
	z := b.Secret(field.New(0x80000000))
	s := b.Add32(FromVar(x), FromVar(y), FromVar(z))
	want := (uint64(0xFFFFFFFF) + 2 + 0x80000000) & 0xFFFFFFFF
	if b.Value(s) != field.New(want) {
		t.Fatalf("add32 = %v, want %d", b.Value(s), want)
	}
	inst, io, w := b.Build()
	if ok, _ := inst.Satisfied(inst.AssembleZ(io, w)); !ok {
		t.Fatal("add32 constraints violated")
	}
}

func TestGadgetInverse(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(field.New(7))
	inv := b.Inverse(FromVar(x))
	if field.Mul(b.Value(x), b.Value(inv)) != field.One {
		t.Fatal("inverse wrong")
	}
	inst, io, w := b.Build()
	if ok, _ := inst.Satisfied(inst.AssembleZ(io, w)); !ok {
		t.Fatal("inverse constraints violated")
	}
}

func TestMatrixEvalsAgainstDirect(t *testing.T) {
	inst, _, _ := buildToy(2, 3, 4, 5, 6)
	rng := rand.New(rand.NewSource(6))
	rx := make([]field.Element, inst.LogConstraints())
	ry := make([]field.Element, inst.LogVars())
	for i := range rx {
		rx[i] = field.New(rng.Uint64())
	}
	for i := range ry {
		ry[i] = field.New(rng.Uint64())
	}
	va, vb, vc, err := inst.MatrixEvalsCtx(context.Background(), rx, ry)
	if err != nil {
		t.Fatal(err)
	}
	eqR, eqC := poly.EqTable(rx), poly.EqTable(ry)
	if va != mleEvalWithTables(inst.A, eqR, eqC) ||
		vb != mleEvalWithTables(inst.B, eqR, eqC) ||
		vc != mleEvalWithTables(inst.C, eqR, eqC) {
		t.Fatal("MatrixEvals disagrees with direct evaluation")
	}
}

func TestBuilderWireCounts(t *testing.T) {
	b := NewBuilder()
	if b.NumWires() != 1 || b.NumConstraints() != 0 {
		t.Fatal("fresh builder not empty")
	}
	b.Public(field.One)
	b.Secret(field.New(2))
	if b.NumWires() != 3 {
		t.Fatalf("NumWires = %d", b.NumWires())
	}
}

// Property: for random satisfied instances, random z perturbations are
// rejected.
func TestRandomCircuitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		b := NewBuilder()
		vars := []Variable{b.Secret(field.New(rng.Uint64()))}
		for i := 0; i < 15; i++ {
			switch rng.Intn(3) {
			case 0:
				vars = append(vars, b.Secret(field.New(rng.Uint64())))
			case 1:
				x := vars[rng.Intn(len(vars))]
				y := vars[rng.Intn(len(vars))]
				vars = append(vars, b.Mul(FromVar(x), FromVar(y)))
			case 2:
				x := vars[rng.Intn(len(vars))]
				y := vars[rng.Intn(len(vars))]
				s := b.Secret(b.Eval(AddLC(FromVar(x), FromVar(y))))
				b.AssertEq(AddLC(FromVar(x), FromVar(y)), FromVar(s))
				vars = append(vars, s)
			}
		}
		inst, io, w := b.Build()
		z := inst.AssembleZ(io, w)
		if ok, i := inst.Satisfied(z); !ok {
			t.Fatalf("trial %d: built instance unsatisfied at %d", trial, i)
		}
		// Perturb a random used z position.
		idx := rng.Intn(len(z))
		z[idx] = field.Add(z[idx], field.One)
		ok, _ := inst.Satisfied(z)
		// Perturbing an unused pad slot keeps it satisfied; detect usage.
		used := false
		for _, mat := range []*SparseMatrix{inst.A, inst.B, inst.C} {
			for _, row := range mat.Rows {
				for _, e := range row {
					if e.Col == idx {
						used = true
					}
				}
			}
		}
		if used && ok {
			t.Fatalf("trial %d: perturbed used wire %d accepted", trial, idx)
		}
	}
}

// TestDigestMemo checks what the statement digest memoizes: an abandoned
// digest stores nothing, an engine other than the default stores nothing,
// and a completed default digest is stored. TestInstanceDigestGolden in
// the root package pins the values.
func TestDigestMemo(t *testing.T) {
	inst, _, _ := buildToy(3, 5, 7, 11, 13)
	x4, ok := hashfn.ByName("keccak-x4")
	if !ok {
		t.Fatal("keccak-x4 engine not registered")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inst.DigestEngineCtx(ctx, nil); err != context.Canceled {
		t.Fatalf("cancelled digest: err %v, want context.Canceled", err)
	}
	if inst.digest.Load() != nil {
		t.Fatal("abandoned digest was memoized")
	}

	dx4 := inst.DigestEngine(x4)
	if inst.digest.Load() != nil {
		t.Fatal("keccak-x4 digest was memoized")
	}

	d := inst.Digest()
	if dx4 != d {
		t.Fatalf("keccak-x4 digest %x, default %x", dx4, d)
	}
	if m := inst.digest.Load(); m == nil || *m != d {
		t.Fatal("completed default digest was not memoized")
	}
}
