package r1cs

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nocap/internal/field"
	"nocap/internal/hashfn"
)

// checkBuilderParity emits cons on b and checks that Build's rows equal,
// row by row, the matrices SparseMatrix.Add assembles from the same
// linear combinations: same columns, same order, same values.
func checkBuilderParity(t *testing.T, b *Builder, cons [][3]LC) {
	t.Helper()
	for _, c := range cons {
		b.Constrain(c[0], c[1], c[2])
	}
	m, n, zIndex := b.layout()
	var want [3]*SparseMatrix
	for k := range want {
		want[k] = NewSparseMatrix(m, n)
		for r, c := range cons {
			for _, term := range c[k] {
				want[k].Add(r, zIndex[term.Var], term.Coeff)
			}
		}
	}
	inst, _, _ := b.Build()
	for k, got := range []*SparseMatrix{inst.A, inst.B, inst.C} {
		if r := FirstDiffRow(got, want[k]); r >= 0 {
			t.Fatalf("matrix %c row %d: Build's %d entries differ from SparseMatrix.Add's %d", "ABC"[k], r, len(got.Rows[r]), len(want[k].Rows[r]))
		}
	}
}

// randomWires allocates wires-1 wires on a fresh builder, a third of
// them public, interleaved.
func randomWires(rng *rand.Rand, wires int) *Builder {
	b := NewBuilder()
	for v := 1; v < wires; v++ {
		if rng.Intn(3) == 0 {
			b.Public(field.New(uint64(v)))
		} else {
			b.Secret(field.New(uint64(v)))
		}
	}
	return b
}

// randomConstraints draws count constraints over wires wires whose
// linear combinations repeat wires, carry zero coefficients and, now and
// then, a term that cancels an earlier one exactly.
func randomConstraints(rng *rand.Rand, wires, count, maxLen int) [][3]LC {
	coeff := func() field.Element {
		switch rng.Intn(4) {
		case 0:
			return field.Zero
		case 1:
			return field.One
		case 2:
			return field.Neg(field.One)
		default:
			return field.New(rng.Uint64())
		}
	}
	cons := make([][3]LC, count)
	for i := range cons {
		for k := range cons[i] {
			lc := make(LC, rng.Intn(maxLen+1))
			for j := range lc {
				lc[j] = Term{Coeff: coeff(), Var: Variable(rng.Intn(wires))}
			}
			if len(lc) > 0 && rng.Intn(4) == 0 {
				t := lc[rng.Intn(len(lc))]
				lc = append(lc, Term{Coeff: field.Neg(t.Coeff), Var: t.Var})
			}
			cons[i][k] = lc
		}
	}
	return cons
}

func FuzzBuilderParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(5), uint8(4))
	f.Add(int64(2), uint8(31), uint16(599), uint8(47))
	f.Add(int64(3), uint8(0), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, wires uint8, count uint16, maxLen uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + int(wires%32)
		b := randomWires(rng, w)
		checkBuilderParity(t, b, randomConstraints(rng, w, int(count%600), int(maxLen%48)))
	})
}

// TestBuilderParityAcrossBlocks drives the entry-block rule: constraints
// that fill a block exactly, overflow it, exceed a whole block on their
// own, and have no nonzero term at all.
func TestBuilderParityAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const wires = 100
	b := randomWires(rng, wires)
	lc := func(n int) LC {
		out := make(LC, n)
		for i := range out {
			out[i] = Term{Coeff: field.New(uint64(1 + rng.Intn(3))), Var: Variable(rng.Intn(wires))}
		}
		return out
	}
	zeros := LC{{Coeff: field.Zero, Var: 1}, {Coeff: field.Zero, Var: 2}}
	cons := [][3]LC{
		{lc(3000), lc(1000), lc(96)}, // exactly one block
		{lc(1), nil, nil},
		{lc(4000), lc(1), lc(1)}, // does not fit the rest of the block
		{nil, nil, nil},
		{zeros, zeros, nil},
		{lc(entryBlock + 500), nil, lc(2)}, // a block of its own
		{lc(2), lc(2), lc(2)},
	}
	cons = append(cons, randomConstraints(rng, wires, 300, 20)...)
	checkBuilderParity(t, b, cons)
}

func TestBuilderBuildsOnce(t *testing.T) {
	b := NewBuilder()
	b.AssertEq(Const(field.One), Const(field.One))
	b.Build()
	for name, f := range map[string]func(){
		"Build":     func() { b.Build() },
		"Constrain": func() { b.AssertEq(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Build did not panic", name)
				}
			}()
			f()
		}()
	}
}

// resetNamedDigests empties the process-wide memo, so a test sees only
// the names it fills, whatever ran before it.
func resetNamedDigests() {
	namedDigests.Lock()
	defer namedDigests.Unlock()
	clear(namedDigests.m)
	namedDigests.order, namedDigests.next = [namedDigestCap]string{}, 0
}

// TestNamedDigestMemo checks the process-wide memo's rules: a named
// instance reads and fills it with the default engine's completed digest
// only, and an unnamed instance never reads it.
func TestNamedDigestMemo(t *testing.T) {
	x4, ok := hashfn.ByName("keccak-x4")
	if !ok {
		t.Fatal("keccak-x4 engine not registered")
	}
	resetNamedDigests()
	done, cancel := context.WithCancel(context.Background())
	cancel()
	const name = "r1cs-test/toy"
	named := func() *Instance {
		inst, _, _ := buildToy(3, 5, 7, 11, 13)
		SetName(inst, name)
		return inst
	}

	first := named()
	if _, err := first.DigestEngineCtx(done, nil); err != context.Canceled {
		t.Fatalf("cancelled digest: err %v, want context.Canceled", err)
	}
	dx4 := first.DigestEngine(x4)
	if _, ok := lookupNamed(name); ok {
		t.Fatal("an abandoned or keccak-x4 digest was memoized")
	}
	d := first.Digest()
	if d != dx4 {
		t.Fatalf("default digest %x, keccak-x4 %x", d, dx4)
	}
	if got, ok := lookupNamed(name); !ok || got != d {
		t.Fatal("completed default digest was not memoized under its name")
	}

	second := named()
	if got, err := second.DigestEngineCtx(done, nil); err != nil || got != d {
		t.Fatalf("second instance of %q under a done ctx: %x, %v; want the memoized digest", name, got, err)
	}
	unnamed, _, _ := buildToy(3, 5, 7, 11, 13)
	if _, err := unnamed.DigestEngineCtx(done, nil); err != context.Canceled {
		t.Fatalf("unnamed instance under a done ctx: err %v, want context.Canceled", err)
	}
}

// TestNamedDigestMemoBounded fills an emptied memo with three times its
// bound of names: it holds exactly namedDigestCap of them, the newest.
func TestNamedDigestMemoBounded(t *testing.T) {
	const total = 3 * namedDigestCap
	key := func(i int) string { return fmt.Sprintf("r1cs-test/bound/%d", i) }
	resetNamedDigests()
	for i := range total {
		inst, _, _ := buildToy(uint64(i), 5, 7, 11, 13)
		SetName(inst, key(i))
		inst.Digest()
	}
	namedDigests.Lock()
	size := len(namedDigests.m)
	namedDigests.Unlock()
	if size != namedDigestCap {
		t.Fatalf("memo holds %d names, bound %d", size, namedDigestCap)
	}
	for i := range total {
		_, ok := lookupNamed(key(i))
		if want := i >= total-namedDigestCap; ok != want {
			t.Fatalf("name %d of %d: memoized %v, want %v", i, total, ok, want)
		}
	}
}

// TestNamedDigestMemoConcurrent digests named instances from several
// goroutines at once, over more names than the memo holds, so reads,
// fills and evictions interleave; every digest must be its statement's.
func TestNamedDigestMemoConcurrent(t *testing.T) {
	const statements, workers = 2 * namedDigestCap, 8
	want := make([]hashfn.Digest, statements)
	for i := range want {
		inst, _, _ := buildToy(uint64(i), 5, 7, 11, 13)
		want[i] = inst.Digest()
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 3 * statements {
				i := (k*7 + w) % statements
				inst, _, _ := buildToy(uint64(i), 5, 7, 11, 13)
				SetName(inst, fmt.Sprintf("r1cs-test/concurrent/%d", i))
				if got := inst.Digest(); got != want[i] {
					t.Errorf("statement %d: digest %x, want %x", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
