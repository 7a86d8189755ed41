package kernel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"nocap/internal/cpu"
	"nocap/internal/field"
)

// eqOnEachPath runs f on every datapath the machine has and requires
// every path to return what the pure-Go loop (the last, Scalar) returns.
func eqOnEachPath(t *testing.T, what string, f func() string) {
	t.Helper()
	var got []string
	var levels []cpu.Level
	cpu.Each(func(l cpu.Level) { got, levels = append(got, f()), append(levels, l) })
	for i := range got {
		if got[i] != got[len(got)-1] {
			t.Fatalf("%s: %v path differs from pure Go", what, levels[i])
		}
	}
}

// FuzzEqExpandParity compares the eq-table kernels on every datapath
// with the pure-Go loop: one doubling step (field.EqSplit) at lengths
// that are not a multiple of the eight lanes, and whole expansions, whose
// parallel chunks end at arbitrary offsets; the expansion must also match
// the product formula.
func FuzzEqExpandParity(f *testing.F) {
	f.Add(int64(1), uint16(13), uint8(3))
	f.Add(int64(2), uint16(7), uint8(0))
	f.Add(int64(3), uint16(1001), uint8(13))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, vars uint8) {
		rng := rand.New(rand.NewSource(seed))
		lo := randElems(t, rng, int(n%2048))
		r := field.New(rng.Uint64())
		eqOnEachPath(t, fmt.Sprintf("EqSplit n=%d", len(lo)), func() string {
			l, h := append([]field.Element(nil), lo...), make([]field.Element, len(lo))
			field.EqSplit(l, h, r)
			return fmt.Sprint(l, h)
		})
		point := randElems(t, rng, int(vars%15))
		var table []field.Element
		eqOnEachPath(t, fmt.Sprintf("EqExpand vars=%d", len(point)), func() string {
			table = make([]field.Element, 1<<len(point))
			EqExpandCtx(context.Background(), table, point)
			return fmt.Sprint(table)
		})
		for _, x := range []int{0, len(table) / 3, len(table) - 1} {
			if want := eqRef(point, x); table[x] != want {
				t.Fatalf("eq table[%d] = %v, want %v", x, table[x], want)
			}
		}
	})
}

// BenchmarkEqExpand is one 2^18-entry expansion: the verifier's column
// table for a 2^16-constraint statement.
func BenchmarkEqExpand(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	r := make([]field.Element, 18)
	for i := range r {
		r[i] = field.New(rng.Uint64())
	}
	table := make([]field.Element, 1<<len(r))
	b.SetBytes(8 << len(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EqExpandCtx(context.Background(), table, r)
	}
}
