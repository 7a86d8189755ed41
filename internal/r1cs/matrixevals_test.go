package r1cs

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"nocap/internal/arena"
	"nocap/internal/cpu"
	"nocap/internal/field"
	"nocap/internal/poly"
)

// mleEvalWithTables is the reference evaluation of one matrix's
// multilinear extension, Σ M[i,j]·eqRow[i]·eqCol[j], one reduced
// multiply-add per nonzero: the per-matrix loop MatrixEvalsCtx's fused
// pass replaced, kept as the oracle it must match.
func mleEvalWithTables(m *SparseMatrix, eqRow, eqCol []field.Element) field.Element {
	if len(eqRow) < m.NumRows || len(eqCol) < m.NumCols {
		panic("r1cs: eq table too small")
	}
	var acc field.Element
	for r, row := range m.Rows {
		if len(row) == 0 {
			continue
		}
		var rowAcc field.Element
		for _, e := range row {
			rowAcc = field.Add(rowAcc, field.Mul(e.Val, eqCol[e.Col]))
		}
		acc = field.Add(acc, field.Mul(eqRow[r], rowAcc))
	}
	return acc
}

// randomInstance builds a 2^logM × 2^logN instance whose rows mix every
// shape the fused pass distinguishes: empty rows, single entries with
// Val = 1 and with other values, long rows, and rows that repeat a
// column (entries appended directly, bypassing SparseMatrix.Add's merge).
func randomInstance(rng *rand.Rand, logM, logN int) *Instance {
	rows, cols := 1<<logM, 1<<logN
	mat := func() *SparseMatrix {
		m := NewSparseMatrix(rows, cols)
		val := func() field.Element {
			switch rng.Intn(4) {
			case 0:
				return field.One
			case 1:
				return field.Neg(field.One)
			}
			return field.New(rng.Uint64())
		}
		for i := range m.Rows {
			switch rng.Intn(6) {
			case 0: // empty
			case 1, 2: // single entry
				m.Rows[i] = []Entry{{Col: rng.Intn(cols), Val: val()}}
			case 3: // single entry, Val = 1
				m.Rows[i] = []Entry{{Col: rng.Intn(cols), Val: field.One}}
			case 4: // long row
				for k := 2 + rng.Intn(9); k > 0; k-- {
					m.Rows[i] = append(m.Rows[i], Entry{Col: rng.Intn(cols), Val: val()})
				}
			case 5: // duplicate column
				c := rng.Intn(cols)
				m.Rows[i] = []Entry{{Col: c, Val: val()}, {Col: c, Val: val()}}
			}
		}
		return m
	}
	return &Instance{A: mat(), B: mat(), C: mat()}
}

func randomPoint(rng *rand.Rand, n int) []field.Element {
	p := make([]field.Element, n)
	for i := range p {
		p[i] = field.New(rng.Uint64())
	}
	return p
}

// checkMatrixEvalsParity requires MatrixEvalsCtx to equal the per-matrix
// reference on every datapath, and to hand back all its arena scratch.
func checkMatrixEvalsParity(t *testing.T, inst *Instance, rx, ry []field.Element) {
	t.Helper()
	eqR, eqC := poly.EqTable(rx), poly.EqTable(ry)
	want := [3]field.Element{
		mleEvalWithTables(inst.A, eqR, eqC),
		mleEvalWithTables(inst.B, eqR, eqC),
		mleEvalWithTables(inst.C, eqR, eqC),
	}
	cpu.Each(func(l cpu.Level) {
		before := arena.ReadStats().Outstanding
		va, vb, vc, err := inst.MatrixEvalsCtx(context.Background(), rx, ry)
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if got := [3]field.Element{va, vb, vc}; got != want {
			t.Fatalf("%v: MatrixEvalsCtx = %v, per-matrix reference = %v", l, got, want)
		}
		if after := arena.ReadStats().Outstanding; after != before {
			t.Fatalf("%v: arena outstanding %d → %d", l, before, after)
		}
	})
}

func TestMatrixEvalsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, shape := range [][2]int{{0, 1}, {1, 1}, {3, 5}, {6, 4}, {10, 11}, {13, 13}} {
		inst := randomInstance(rng, shape[0], shape[1])
		checkMatrixEvalsParity(t, inst, randomPoint(rng, shape[0]), randomPoint(rng, shape[1]))
	}
}

func TestMatrixEvalsHonorsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inst := randomInstance(rng, 12, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := arena.ReadStats().Outstanding
	if _, _, _, err := inst.MatrixEvalsCtx(ctx, randomPoint(rng, 12), randomPoint(rng, 12)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MatrixEvalsCtx returned %v", err)
	}
	if after := arena.ReadStats().Outstanding; after != before {
		t.Fatalf("arena outstanding %d → %d after cancellation", before, after)
	}
}

// FuzzMatrixEvalsParity compares the fused row-parallel pass with the
// per-matrix reference on random instances of random shape.
func FuzzMatrixEvalsParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1))
	f.Add(int64(2), uint8(4), uint8(6))
	f.Add(int64(3), uint8(12), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, logM, logN uint8) {
		m, n := int(logM%14), 1+int(logN%14)
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, m, n)
		checkMatrixEvalsParity(t, inst, randomPoint(rng, m), randomPoint(rng, n))
	})
}

// BenchmarkMatrixEvals times the verifier's final-check matrix pass on
// a 2^16 × 2^17 random instance.
func BenchmarkMatrixEvals(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	inst := randomInstance(rng, 16, 17)
	rx, ry := randomPoint(rng, 16), randomPoint(rng, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := inst.MatrixEvalsCtx(context.Background(), rx, ry); err != nil {
			b.Fatal(err)
		}
	}
}
